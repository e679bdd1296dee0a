(* Database engine tests: storage layers (record codec, pager+journal,
   B-tree) and the SQL surface (DDL, DML, queries, transactions). *)

open Twine_sqldb

let v_int n = Value.Int (Int64.of_int n)
let v_text s = Value.Text s

let value_t = Alcotest.testable (Fmt.of_to_string Value.to_string) Value.equal
let row_t = Alcotest.(list value_t)
let rows_t = Alcotest.(list row_t)

let mem_db () = Db.open_db ":memory:"
let mem_vfs () = Svfs.of_backing (Twine_sim.Backing.memory ())

(* --- Value --- *)

let test_value_compare () =
  Alcotest.(check bool) "null < int" true (Value.compare Value.Null (v_int 0) < 0);
  Alcotest.(check bool) "int < text" true (Value.compare (v_int 999) (v_text "a") < 0);
  Alcotest.(check bool) "text < blob" true
    (Value.compare (v_text "zzz") (Value.Blob "\x00") < 0);
  Alcotest.(check bool) "int ~ real" true
    (Value.compare (v_int 2) (Value.Real 2.5) < 0);
  Alcotest.(check bool) "int = real" true (Value.equal (v_int 2) (Value.Real 2.0));
  (* exact past 2^53, where [Int64.to_float] rounds *)
  let sign a b = Stdlib.compare (Value.compare a b) 0 in
  List.iter
    (fun (name, a, b, want) ->
      Alcotest.(check int) name want (sign a b);
      Alcotest.(check int) (name ^ ", swapped") (-want) (sign b a))
    [ ("2^53 + 1 > 2^53", Value.Int 9007199254740993L, Value.Real 0x1p53, 1);
      ("2^53 = 2^53", Value.Int 9007199254740992L, Value.Real 0x1p53, 0);
      ("-2^53 - 1 < -2^53", Value.Int (-9007199254740993L), Value.Real (-0x1p53), -1);
      ("max_int < 2^63", Value.Int Int64.max_int, Value.Real 0x1p63, -1);
      ("min_int = -2^63", Value.Int Int64.min_int, Value.Real (-0x1p63), 0);
      ("min_int + 1 > -2^63", Value.Int (Int64.add Int64.min_int 1L), Value.Real (-0x1p63), 1);
      ("-2 > -2.5", v_int (-2), Value.Real (-2.5), 1);
      ("-3 < -2.5", v_int (-3), Value.Real (-2.5), -1);
      ("int > nan", v_int 0, Value.Real Float.nan, 1);
      ("int < inf", Value.Int Int64.max_int, Value.Real Float.infinity, -1);
      ("int > -inf", Value.Int Int64.min_int, Value.Real Float.neg_infinity, 1) ]

let test_value_arith () =
  Alcotest.check value_t "add" (v_int 5) (Value.add (v_int 2) (v_int 3));
  Alcotest.check value_t "mixed" (Value.Real 5.5) (Value.add (v_int 2) (Value.Real 3.5));
  Alcotest.check value_t "null propagates" Value.Null (Value.add Value.Null (v_int 1));
  Alcotest.check value_t "div by zero" Value.Null (Value.div (v_int 1) (v_int 0));
  Alcotest.check value_t "concat" (v_text "ab1") (Value.concat (v_text "ab") (v_int 1))

let test_value_like () =
  Alcotest.(check bool) "prefix" true (Value.like ~pattern:"he%" "hello");
  Alcotest.(check bool) "underscore" true (Value.like ~pattern:"h_llo" "hello");
  Alcotest.(check bool) "case insensitive" true (Value.like ~pattern:"HE%" "hello");
  Alcotest.(check bool) "no match" false (Value.like ~pattern:"x%" "hello");
  Alcotest.(check bool) "inner %" true (Value.like ~pattern:"%ell%" "hello")

(* A REAL is written as SQLite's "%!.15g" writes it: 15 significant
   digits, and ".0" when they have no point. *)
let test_real_text () =
  List.iter
    (fun (f, want) -> Alcotest.(check string) want want (Value.to_string (Value.Real f)))
    [ (3.14159265, "3.14159265"); (1234567., "1234567.0"); (7., "7.0"); (1e30, "1.0e+30");
      (100. /. 3., "33.3333333333333"); (0.1, "0.1"); (1e-5, "1.0e-05"); (-2.5, "-2.5");
      (0., "0.0"); (-0., "0.0"); (123456789012345678., "1.23456789012346e+17");
      (Float.infinity, "Inf"); (Float.neg_infinity, "-Inf") ];
  Alcotest.check value_t "concat" (v_text "7.0") (Value.concat (Value.Real 7.) (v_text ""));
  let db = mem_db () in
  Alcotest.check rows_t "as SQL text"
    [ [ v_text "7.0"; v_int 3; v_text "real" ] ]
    (Db.query db "SELECT CAST(7.0 AS TEXT), length(7.0), typeof(7.0)");
  Db.close db

let prop_record_roundtrip =
  let gen_value =
    QCheck.Gen.(
      oneof
        [ return Value.Null;
          map (fun i -> Value.Int (Int64.of_int i)) int;
          map (fun f -> Value.Real f) (float_bound_inclusive 1e6);
          map (fun s -> Value.Text s) (string_size (int_range 0 50));
          map (fun s -> Value.Blob s) (string_size (int_range 0 50)) ])
  in
  QCheck.Test.make ~name:"record roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 10) gen_value))
    (fun values -> Record.decode (Record.encode values) = values)

(* Values where the two orderings could part: integers past 2^53, where
   [Int64.to_float] rounds, NaN, -0.0 and the infinities, and text and
   blobs with shared prefixes, empty and of different lengths. *)
let gen_edge_value =
  QCheck.Gen.(
    let bytes = map2 ( ^ ) (oneofl [ ""; "a"; "ab"; "\xff" ]) (string_size (int_range 0 3)) in
    frequency
      [ (1, return Value.Null);
        (3, map (fun i -> Value.Int i)
              (oneof
                 [ map Int64.of_int (int_range (-3) 3);
                   oneofl [ Int64.max_int; Int64.min_int; 9007199254740992L;
                            9007199254740993L; -9007199254740993L ];
                   ui64 ]));
        (3, map (fun f -> Value.Real f)
              (oneof
                 [ oneofl [ Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity;
                            9007199254740992.0; 9007199254740994.0; 0x1p63; -0x1p63;
                            1.5; -1.5; 2.0 ];
                   float ]));
        (2, map (fun s -> Value.Text s) bytes);
        (2, map (fun s -> Value.Blob s) bytes) ])

let gen_edge_record = QCheck.Gen.(list_size (int_range 0 4) gen_edge_value)

let print_record vs = String.concat ", " (List.map Value.to_string vs)

(* The ordering on the bytes is the lexicographic [Value.compare] of the
   decoded lists, on whole strings and on a record inside a page. *)
let prop_compare_encoded =
  QCheck.Test.make ~name:"compare_encoded = Value.compare of the decoded lists" ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair print_record print_record)
       QCheck.Gen.(pair gen_edge_record gen_edge_record))
    (fun (a, b) ->
      let ea = Record.encode a and eb = Record.encode b in
      let expect = List.compare Value.compare (Record.decode ea) (Record.decode eb) in
      let page = Bytes.make (String.length ea + 10) '\x01' in
      Bytes.blit_string ea 0 page 7 (String.length ea);
      Record.compare_encoded ea eb = expect
      && Record.compare_sub page 7 (String.length ea) eb = expect)

(* A record cut inside its last field, or with a bad tag, raises [Corrupt]
   once a compare reaches that field, as decoding it does. *)
let prop_compare_corrupt =
  let gen =
    QCheck.Gen.(
      gen_edge_record >>= fun prefix ->
      gen_edge_value >>= fun last ->
      let head = Record.encode prefix in
      let field = Record.encode [ last ] in
      let cut =
        if String.length field < 2 then return None
        else map Option.some (int_range 1 (String.length field - 1))
      in
      map3
        (fun cut truncate tag ->
          match cut with
          | Some c when truncate -> head ^ String.sub field 0 c
          | _ -> head ^ String.make 1 (Char.chr tag) ^ field)
        cut bool (int_range 5 255))
  in
  QCheck.Test.make ~name:"compare_encoded raises Corrupt on a malformed field" ~count:500
    (QCheck.make ~print:String.escaped gen)
    (fun bad ->
      let raises f = match f () with _ -> false | exception Record.Corrupt _ -> true in
      raises (fun () -> Record.decode bad)
      && raises (fun () -> Record.compare_encoded bad bad))

let test_compare_no_alloc () =
  let keys =
    [ [ v_int 41; v_int 7 ]; [ v_int 41; v_int 8 ]; [ Value.Real 41.5; v_int 1 ];
      [ v_text "alphabet"; v_int 2 ]; [ v_text "alpha"; v_int 2 ]; [ Value.Blob "\x00"; Value.Null ] ]
    |> List.map Record.encode |> Array.of_list
  in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    let a = keys.(i mod 6) and b = keys.(i * 5 mod 6) in
    sink := !sink + Record.compare_encoded a b
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 1000 compares" words) true (words < 16.)

(* --- Pager --- *)

let test_pager_txn_commit () =
  let vfs = mem_vfs () in
  let p = Pager.create_or_open vfs "db" in
  Pager.begin_txn p;
  let pg = Pager.alloc p in
  let b = Pager.modify p pg in
  Bytes.blit_string "hello" 0 b 0 5;
  Pager.commit p;
  Pager.close p;
  let p2 = Pager.create_or_open vfs "db" in
  Alcotest.(check string) "committed" "hello"
    (Bytes.sub_string (Pager.read_page p2 pg) 0 5);
  Pager.close p2

let test_pager_rollback () =
  let vfs = mem_vfs () in
  let p = Pager.create_or_open vfs "db" in
  Pager.begin_txn p;
  let pg = Pager.alloc p in
  let b = Pager.modify p pg in
  Bytes.blit_string "first" 0 b 0 5;
  Pager.commit p;
  Pager.begin_txn p;
  let b = Pager.modify p pg in
  Bytes.blit_string "SPOILED" 0 b 0 7;
  Pager.rollback p;
  Alcotest.(check string) "rolled back" "first"
    (Bytes.sub_string (Pager.read_page p pg) 0 5);
  Pager.close p

let test_pager_crash_recovery () =
  (* simulate a crash: journal exists, some dirty pages were written *)
  let vfs = mem_vfs () in
  let p = Pager.create_or_open vfs "db" in
  Pager.begin_txn p;
  let pg = Pager.alloc p in
  let b = Pager.modify p pg in
  Bytes.blit_string "stable" 0 b 0 6;
  Pager.commit p;
  (* start a txn, modify, write the dirty page out by hand, then "crash"
     without committing (journal remains) *)
  Pager.begin_txn p;
  let b = Pager.modify p pg in
  Bytes.blit_string "BROKEN" 0 b 0 6;
  (* force the page to storage as a mid-transaction spill would *)
  let file = vfs.Svfs.v_open "db" in
  file.Svfs.v_write ~pos:(pg * Pager.page_size) "BROKEN";
  (* do NOT commit/rollback; reopen — recovery must restore "stable" *)
  let p2 = Pager.create_or_open vfs "db" in
  Alcotest.(check string) "recovered" "stable"
    (Bytes.sub_string (Pager.read_page p2 pg) 0 6);
  Pager.close p2

let test_pager_freelist_reuse () =
  let vfs = mem_vfs () in
  let p = Pager.create_or_open vfs "db" in
  Pager.begin_txn p;
  let a = Pager.alloc p in
  let _b = Pager.alloc p in
  Pager.free p a;
  let c = Pager.alloc p in
  Alcotest.(check int) "freed page reused" a c;
  Pager.commit p;
  Pager.close p

(* The journal's entry checksum, pinned at values the format was written
   with: a change to how it is computed would make recovery reject every
   journal written before it. *)
let test_pager_entry_cksum () =
  let zero = String.make Pager.page_size '\000' in
  let fixed = String.init Pager.page_size (fun i -> Char.chr (((i * 31) + 7) land 0xff)) in
  Alcotest.(check int) "zero page 0" 2606576917 (Pager.entry_cksum 0 zero);
  Alcotest.(check int) "zero page 7" 3552425954 (Pager.entry_cksum 7 zero);
  Alcotest.(check int) "fixed page" 1910166869 (Pager.entry_cksum 0x01020304 fixed)

(* Loading a page must not evict it, even when every other cached page is
   dirty: the 3 000-row transaction pins more dirty pages than the 64-page
   cache holds, and VACUUM then reuses freelist pages whose zeroing must
   reach the file, or the freelist leads past the end of it. *)
let test_pager_small_cache_vacuum () =
  let db = Db.open_db ~cache_pages:64 ":memory:" in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER, c TEXT)");
  ignore (Db.exec db "CREATE INDEX ia ON t(a)");
  ignore (Db.exec db "BEGIN");
  for i = 1 to 3000 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'row %d')" (i * 7 mod 3001) i))
  done;
  ignore (Db.exec db "COMMIT");
  ignore (Db.exec db "VACUUM");
  Alcotest.check rows_t "rows after vacuum" [ [ v_int 3000; v_int 3000 ] ]
    (Db.query db "SELECT count(*), count(c) FROM t");
  Alcotest.check rows_t "index after vacuum" [ [ v_int 1 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE a = 700");
  Db.close db

(* --- Btree --- *)

let with_btree kind f =
  let vfs = mem_vfs () in
  let p = Pager.create_or_open vfs "db" in
  Pager.begin_txn p;
  let root = Btree.create p kind in
  f p root;
  Pager.commit p;
  Pager.close p

let test_btree_insert_lookup () =
  with_btree Btree.Table (fun p root ->
      for i = 1 to 500 do
        Btree.insert_table p ~root ~rowid:(Int64.of_int i)
          (Printf.sprintf "payload-%d" i)
      done;
      Alcotest.(check (option string)) "mid" (Some "payload-250")
        (Btree.lookup_table p ~root 250L);
      Alcotest.(check (option string)) "first" (Some "payload-1")
        (Btree.lookup_table p ~root 1L);
      Alcotest.(check (option string)) "missing" None (Btree.lookup_table p ~root 999L);
      Alcotest.(check int) "count" 500 (Btree.count_table p ~root);
      Alcotest.(check (option int64)) "max" (Some 500L) (Btree.max_rowid p ~root))

let test_btree_random_order_inserts () =
  with_btree Btree.Table (fun p root ->
      let drbg = Twine_crypto.Drbg.create ~seed:"btree" () in
      let n = 1000 in
      let perm = Array.init n (fun i -> i + 1) in
      for i = n - 1 downto 1 do
        let j = Twine_crypto.Drbg.int_below drbg (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      Array.iter
        (fun i ->
          Btree.insert_table p ~root ~rowid:(Int64.of_int i) (string_of_int (i * i)))
        perm;
      (* in-order iteration yields sorted rowids *)
      let seen = ref [] in
      Btree.iter_table p ~root (fun r _ ->
          seen := r :: !seen;
          true);
      let sorted = List.init n (fun i -> Int64.of_int (i + 1)) in
      Alcotest.(check (list int64)) "sorted iteration" sorted (List.rev !seen))

let test_btree_range_iteration () =
  with_btree Btree.Table (fun p root ->
      for i = 1 to 300 do
        Btree.insert_table p ~root ~rowid:(Int64.of_int i) "x"
      done;
      let seen = ref [] in
      Btree.iter_table p ~root ~min:100L ~max:110L (fun r _ ->
          seen := r :: !seen;
          true);
      Alcotest.(check (list int64)) "range" (List.init 11 (fun i -> Int64.of_int (100 + i)))
        (List.rev !seen);
      (* early stop *)
      let count = ref 0 in
      Btree.iter_table p ~root (fun _ _ ->
          incr count;
          !count < 5);
      Alcotest.(check int) "stopped" 5 !count)

let test_btree_replace_and_delete () =
  with_btree Btree.Table (fun p root ->
      Btree.insert_table p ~root ~rowid:7L "old";
      Btree.insert_table p ~root ~rowid:7L "new";
      Alcotest.(check (option string)) "replaced" (Some "new")
        (Btree.lookup_table p ~root 7L);
      Alcotest.(check int) "no dup" 1 (Btree.count_table p ~root);
      Alcotest.(check bool) "delete" true (Btree.delete_table p ~root 7L);
      Alcotest.(check bool) "gone" true (Btree.lookup_table p ~root 7L = None);
      Alcotest.(check bool) "delete missing" false (Btree.delete_table p ~root 7L))

let test_btree_large_payloads () =
  with_btree Btree.Table (fun p root ->
      (* 1 KiB payloads force splits after ~4 cells *)
      for i = 1 to 200 do
        Btree.insert_table p ~root ~rowid:(Int64.of_int i) (String.make 1024 (Char.chr (i land 0xff)))
      done;
      Alcotest.(check int) "count" 200 (Btree.count_table p ~root);
      Alcotest.(check (option string)) "content" (Some (String.make 1024 (Char.chr 77)))
        (Btree.lookup_table p ~root 77L);
      Alcotest.(check bool) "oversize rejected" true
        (try
           Btree.insert_table p ~root ~rowid:999L (String.make 8000 'x');
           false
         with Btree.Too_large _ -> true))

(* Cells of mixed sizes. When the middle cut leaves a half that does not
   fit a page, a split takes the nearest cut that fits, or three pages. *)
let test_btree_three_way_splits () =
  let row n c = String.make n c in
  with_btree Btree.Table (fun p root ->
      (* the new cell fits beside neither neighbour: one leaf each *)
      Btree.insert_table p ~root ~rowid:1L (row 2000 'a');
      Btree.insert_table p ~root ~rowid:3L (row 2000 'c');
      Btree.insert_table p ~root ~rowid:2L (row 2100 'b');
      Alcotest.(check int) "root over three leaves" 4 (List.length (Btree.pages p ~root));
      List.iter
        (fun (r, n, c) ->
          Alcotest.(check (option string)) "row" (Some (row n c)) (Btree.lookup_table p ~root r))
        [ (1L, 2000, 'a'); (2L, 2100, 'b'); (3L, 2000, 'c') ];
      Alcotest.(check int) "count" 3 (Btree.count_table p ~root));
  with_btree Btree.Table (fun p root ->
      (* a replace that grows the middle cell of a full leaf, then shrinks it *)
      Btree.insert_table p ~root ~rowid:1L (row 2000 'a');
      Btree.insert_table p ~root ~rowid:2L (row 10 'b');
      Btree.insert_table p ~root ~rowid:3L (row 2000 'c');
      Btree.insert_table p ~root ~rowid:2L (row 2100 'B');
      Alcotest.(check int) "grown into three leaves" 4 (List.length (Btree.pages p ~root));
      Btree.insert_table p ~root ~rowid:2L (row 1 'x');
      Alcotest.(check (option string)) "shrunk" (Some "x") (Btree.lookup_table p ~root 2L);
      Alcotest.(check (option int64)) "max" (Some 3L) (Btree.max_rowid p ~root);
      Alcotest.(check int) "count" 3 (Btree.count_table p ~root));
  with_btree Btree.Index (fun p root ->
      (* the same in an index: the two separators then overflow the new
         root, which splits in turn *)
      let key c n = Record.encode [ v_text (row n c); v_int 0 ] in
      List.iter
        (fun k -> Btree.insert_index p ~root k)
        [ key 'a' 2000; key 'c' 2000; key 'b' 2100 ];
      let got = ref [] in
      Btree.iter_index p ~root (fun k ->
          got := k :: !got;
          true);
      Alcotest.(check (list string)) "keys in order" [ key 'a' 2000; key 'b' 2100; key 'c' 2000 ]
        (List.rev !got);
      Alcotest.(check int) "three leaves under three interior pages" 6
        (List.length (Btree.pages p ~root));
      Alcotest.(check bool) "delete" true (Btree.delete_index p ~root (key 'b' 2100)));
  with_btree Btree.Index (fun p root ->
      (* an interior page taking two separators that no single cut can
         place splits in three as well: a, e and d make a root over the
         leaves [a] [d] [e], b joins [d], and c splits that leaf in three,
         passing b and c up. [key c len] is an encoded key of [len] bytes *)
      let key c len = Record.encode [ v_text (String.make 1 c ^ row (len - 13) 'x'); v_int 0 ] in
      let keys = [ key 'a' 2060; key 'e' 2100; key 'd' 2000; key 'b' 2070; key 'c' 2100 ] in
      List.iter (fun k -> Btree.insert_index p ~root k) keys;
      let got = ref [] in
      Btree.iter_index p ~root (fun k ->
          got := k :: !got;
          true);
      Alcotest.(check (list string)) "keys in order"
        [ key 'a' 2060; key 'b' 2070; key 'c' 2100; key 'd' 2000; key 'e' 2100 ]
        (List.rev !got);
      Alcotest.(check int) "five leaves under six interior pages" 11
        (List.length (Btree.pages p ~root));
      List.iter
        (fun k -> Alcotest.(check bool) "delete" true (Btree.delete_index p ~root k))
        keys)

(* Split reproductions: 65 short index keys then 5 of 701 bytes, and a
   leaf of three 1-character rows and two 2 000-character ones taking a
   100-character row. A split at the middle cell left a half that did not
   fit a page, and the insert raised [Invalid_argument]. *)
let test_split_mixed_index_keys () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(s TEXT)");
  ignore (Db.exec db "CREATE INDEX ts ON t(s)");
  for i = 100 to 164 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES ('a%d')" i))
  done;
  for i = 1 to 5 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES ('b%d%s')" i (String.make 698 'x')))
  done;
  Alcotest.check rows_t "rows" [ [ v_int 70 ] ] (Db.query db "SELECT count(*) FROM t");
  Alcotest.check rows_t "long keys through the index" [ [ v_int 5 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE s >= 'b'");
  Db.close db

let test_split_mixed_table_rows () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, s TEXT)");
  List.iter
    (fun (a, n) ->
      ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, '%s')" a (String.make n 's'))))
    [ (1, 1); (2, 1); (3, 1); (4, 2000); (5, 2000); (6, 100) ];
  Alcotest.check rows_t "rows" [ [ v_int 6 ] ] (Db.query db "SELECT count(*) FROM t");
  Alcotest.check rows_t "lengths" [ [ v_int 2000 ]; [ v_int 100 ] ]
    (Db.query db "SELECT length(s) FROM t WHERE a >= 5");
  Db.close db

let test_btree_index_ops () =
  with_btree Btree.Index (fun p root ->
      let key vals rowid =
        Record.encode (vals @ [ Value.Int (Int64.of_int rowid) ])
      in
      for i = 1 to 300 do
        Btree.insert_index p ~root (key [ v_text (Printf.sprintf "k%04d" (301 - i)) ] i)
      done;
      (* iterate in key order *)
      let first = ref None in
      Btree.iter_index p ~root (fun k ->
          first := Some k;
          false);
      Alcotest.(check (option (list value_t))) "smallest key first"
        (Some [ v_text "k0001"; v_int 300 ])
        (Option.map Record.decode !first);
      (* seek *)
      let hits = ref [] in
      Btree.iter_index p ~root ~start:(Record.encode [ v_text "k0299" ]) (fun k ->
          hits := Record.decode k :: !hits;
          true);
      Alcotest.(check int) "seek tail" 2 (List.length !hits);
      (* delete *)
      Alcotest.(check bool) "delete" true
        (Btree.delete_index p ~root (key [ v_text "k0001" ] 300)))

(* A seek that stops at its first key makes a string of that key alone:
   over every key of a 2 000-key index, none allocates 700 minor words,
   where a string of every key from the seek to the end of its leaf
   takes up to 1 216. *)
let test_index_seek_allocation () =
  with_btree Btree.Index (fun p root ->
      let key i = Record.encode [ v_int i; v_int i ] in
      for i = 0 to 1999 do
        Btree.insert_index p ~root (key i)
      done;
      let seek i =
        let got = ref None in
        let before = Gc.minor_words () in
        Btree.iter_index p ~root ~start:(key i) (fun k ->
            got := Some k;
            false);
        let words = Gc.minor_words () -. before in
        Alcotest.(check (option string)) "first key" (Some (key i)) !got;
        words
      in
      let worst = List.fold_left (fun w i -> Float.max w (seek i)) 0. (List.init 2000 Fun.id) in
      Alcotest.(check bool) (Printf.sprintf "%.0f minor words" worst) true (worst < 700.))

(* --- Tokenizer --- *)

(* Keywords match in any case and come out uppercased; a word that only
   starts with a keyword stays an identifier, spelled as written. *)
let test_keywords () =
  let one word = match Token.tokenize word with [ t; Token.Eof ] -> Some t | _ -> None in
  List.iter
    (fun kw ->
      let mixed = String.mapi (fun i c -> if i mod 2 = 0 then Char.lowercase_ascii c else c) kw in
      List.iter
        (fun word ->
          Alcotest.(check bool) word true (one word = Some (Token.Keyword kw)))
        [ String.lowercase_ascii kw; kw; mixed ])
    Token.keywords;
  List.iter
    (fun word -> Alcotest.(check bool) word true (one word = Some (Token.Ident word)))
    [ "selected"; "order_id"; "Selected"; "FROMAGE"; "index2"; "_select" ]

(* --- SQL layer --- *)

let test_create_insert_select () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT, c REAL)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5)");
  ignore (Db.exec db "INSERT INTO t(b, c) VALUES ('three', 3.5)");
  let r = Db.exec db "SELECT a, b, c FROM t ORDER BY a" in
  Alcotest.(check (list string)) "columns" [ "a"; "b"; "c" ] r.Db.columns;
  Alcotest.check rows_t "rows"
    [ [ v_int 1; v_text "one"; Value.Real 1.5 ];
      [ v_int 2; v_text "two"; Value.Real 2.5 ];
      [ v_int 3; v_text "three"; Value.Real 3.5 ] ]
    r.Db.rows;
  Db.close db

let test_where_and_expressions () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)");
  ignore
    (Db.exec db
       "INSERT INTO t VALUES (1,10),(2,20),(3,30),(4,40),(5,NULL)");
  Alcotest.check rows_t "comparison" [ [ v_int 3 ]; [ v_int 4 ] ]
    (Db.query db "SELECT a FROM t WHERE b > 25 ORDER BY a");
  Alcotest.check rows_t "arith in where" [ [ v_int 2 ] ]
    (Db.query db "SELECT a FROM t WHERE b * 2 = 40");
  Alcotest.check rows_t "is null" [ [ v_int 5 ] ]
    (Db.query db "SELECT a FROM t WHERE b IS NULL");
  Alcotest.check rows_t "is not null count" [ [ v_int 4 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE b IS NOT NULL");
  Alcotest.check rows_t "between" [ [ v_int 2 ]; [ v_int 3 ] ]
    (Db.query db "SELECT a FROM t WHERE b BETWEEN 20 AND 30 ORDER BY a");
  Alcotest.check rows_t "in list" [ [ v_int 1 ]; [ v_int 3 ] ]
    (Db.query db "SELECT a FROM t WHERE a IN (1, 3) ORDER BY a");
  Alcotest.check rows_t "and/or" [ [ v_int 1 ]; [ v_int 4 ] ]
    (Db.query db "SELECT a FROM t WHERE b = 10 OR (b > 35 AND a < 5) ORDER BY a");
  Db.close db

let test_like_and_functions () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE n(name TEXT)");
  ignore (Db.exec db "INSERT INTO n VALUES ('alpha'),('beta'),('alabama')");
  Alcotest.check rows_t "like" [ [ v_text "alpha" ]; [ v_text "alabama" ] ]
    (Db.query db "SELECT name FROM n WHERE name LIKE 'al%'");
  Alcotest.check rows_t "length" [ [ v_int 5 ] ]
    (Db.query db "SELECT length(name) FROM n WHERE name = 'alpha'");
  Alcotest.check rows_t "upper/substr" [ [ v_text "ALP" ] ]
    (Db.query db "SELECT upper(substr(name, 1, 3)) FROM n WHERE name = 'alpha'");
  Alcotest.check rows_t "case" [ [ v_text "long" ] ]
    (Db.query db
       "SELECT CASE WHEN length(name) > 5 THEN 'long' ELSE 'short' END FROM n WHERE name='alabama'");
  Db.close db

let test_aggregates_group_by () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE s(dept TEXT, salary INTEGER)");
  ignore
    (Db.exec db
       "INSERT INTO s VALUES ('eng', 100), ('eng', 120), ('ops', 80), ('ops', 90), ('hr', 70)");
  Alcotest.check rows_t "count" [ [ v_int 5 ] ] (Db.query db "SELECT count(*) FROM s");
  Alcotest.check rows_t "sum/avg/min/max"
    [ [ v_int 460; Value.Real 92.; v_int 70; v_int 120 ] ]
    (Db.query db "SELECT sum(salary), avg(salary), min(salary), max(salary) FROM s");
  Alcotest.check rows_t "group by"
    [ [ v_text "eng"; v_int 220 ]; [ v_text "hr"; v_int 70 ]; [ v_text "ops"; v_int 170 ] ]
    (Db.query db "SELECT dept, sum(salary) FROM s GROUP BY dept ORDER BY dept");
  Alcotest.check rows_t "group by + where"
    [ [ v_text "eng"; v_int 2 ] ]
    (Db.query db
       "SELECT dept, count(*) FROM s WHERE salary >= 90 GROUP BY dept ORDER BY count(*) DESC LIMIT 1");
  Db.close db

(* A SELECT without FROM reads one empty row through the same loop as
   any other, so WHERE, LIMIT, OFFSET and aggregates hold. *)
let test_select_without_from () =
  let db = mem_db () in
  List.iter
    (fun (sql, want) -> Alcotest.check rows_t sql want (Db.query db sql))
    [ ("SELECT count(*)", [ [ v_int 1 ] ]);
      ("SELECT max(1)", [ [ v_int 1 ] ]);
      ("SELECT count(*) WHERE 0", [ [ v_int 0 ] ]);
      ("SELECT 1 WHERE 0", []);
      ("SELECT 1 LIMIT 0", []);
      ("SELECT 2 LIMIT 1 OFFSET 1", []);
      ("SELECT 1 + 1, 'x' WHERE 1 LIMIT 1", [ [ v_int 2; v_text "x" ] ]) ];
  Db.close db

let sql_error_is db sql want =
  match Db.exec db sql with
  | _ -> Alcotest.failf "%s: no error" sql
  | exception Db.Sql_error msg -> Alcotest.(check string) sql want msg

(* A GROUP BY term that is an integer K names the K-th result column, as
   in SQLite. *)
let test_group_by_positions () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a, b)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 1), (2, 1), (3, 2)");
  Alcotest.check rows_t "GROUP BY 1 groups by b"
    [ [ v_int 1; v_int 2 ]; [ v_int 2; v_int 1 ] ]
    (Db.query db "SELECT b, count(*) FROM t GROUP BY 1");
  Alcotest.check rows_t "by an expression column"
    [ [ v_int 0; v_int 1 ]; [ v_int 1; v_int 2 ] ]
    (Db.query db "SELECT a % 2, count(*) FROM t GROUP BY 1 ORDER BY 1");
  let range = "GROUP BY term out of range - should be between 1 and 2" in
  sql_error_is db "SELECT b, count(*) FROM t GROUP BY 0" range;
  sql_error_is db "SELECT b, count(*) FROM t GROUP BY 3" range;
  let agg = "aggregate functions are not allowed in the GROUP BY clause" in
  sql_error_is db "SELECT b, count(*) FROM t GROUP BY 2" agg;
  sql_error_is db "SELECT b FROM t GROUP BY count(*)" agg;
  Db.close db

(* HAVING filters groups, also the one group of a scalar aggregate, and
   needs an aggregate query. *)
let test_having () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE s(dept TEXT, salary INTEGER)");
  ignore
    (Db.exec db
       "INSERT INTO s VALUES ('eng', 100), ('eng', 120), ('ops', 80), ('ops', 90), ('hr', 70)");
  List.iter
    (fun (sql, want) -> Alcotest.check rows_t sql want (Db.query db sql))
    [ ( "SELECT dept, count(*) FROM s GROUP BY dept HAVING count(*) > 1 ORDER BY dept",
        [ [ v_text "eng"; v_int 2 ]; [ v_text "ops"; v_int 2 ] ] );
      ( "SELECT dept FROM s GROUP BY dept HAVING dept <> 'hr' AND max(salary) > 85 ORDER BY 1",
        [ [ v_text "eng" ]; [ v_text "ops" ] ] );
      ("SELECT count(*) FROM s HAVING count(*) > 4", [ [ v_int 5 ] ]);
      ("SELECT count(*) FROM s HAVING count(*) > 5", []);
      ("SELECT count(*) FROM s WHERE salary > 500 HAVING count(*) = 0", [ [ v_int 0 ] ]);
      ("SELECT sum(salary) FROM s HAVING min(salary) < 80", [ [ v_int 460 ] ]);
      ("SELECT count(*) HAVING count(*) = 1", [ [ v_int 1 ] ]) ];
  let plain = "HAVING clause on a non-aggregate query" in
  sql_error_is db "SELECT salary FROM s HAVING salary > 1" plain;
  sql_error_is db "SELECT 1 HAVING 0" plain;
  Db.close db

(* A GROUP BY evaluates its key once per row, under the aggregate
   operator, however a group's rows are spread: 400 rows in 20 groups
   book 400 work units there, each group's rows contiguous or
   interleaved. *)
let test_group_by_work () =
  let run group =
    let db = mem_db () in
    ignore (Db.exec db "CREATE TABLE t(i INTEGER, g INTEGER)");
    ignore
      (Db.exec db
         ("INSERT INTO t VALUES "
         ^ String.concat ", " (List.init 400 (fun i -> Printf.sprintf "(%d, %d)" i (group i)))));
    let rows = Db.query db "SELECT g, count(*) FROM t GROUP BY g" in
    let p = Option.get (Db.last_profile db) in
    let agg = List.find (fun (o : Db.opstat) -> o.os_name = "aggregate") p.Db.pr_ops in
    Db.close db;
    (rows, agg.Db.os_work)
  in
  let contiguous, work_c = run (fun i -> i / 20) and interleaved, work_i = run (fun i -> i mod 20) in
  Alcotest.(check int) "contiguous groups" 400 work_c;
  Alcotest.(check int) "interleaved groups" 400 work_i;
  Alcotest.check rows_t "20 groups of 20" (List.init 20 (fun g -> [ v_int g; v_int 20 ])) contiguous;
  Alcotest.check rows_t "equal rows" contiguous interleaved

let test_order_limit_distinct () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(x INTEGER)");
  ignore (Db.exec db "INSERT INTO t VALUES (3),(1),(2),(3),(1)");
  Alcotest.check rows_t "order desc"
    [ [ v_int 3 ]; [ v_int 3 ]; [ v_int 2 ]; [ v_int 1 ]; [ v_int 1 ] ]
    (Db.query db "SELECT x FROM t ORDER BY x DESC");
  Alcotest.check rows_t "distinct" [ [ v_int 1 ]; [ v_int 2 ]; [ v_int 3 ] ]
    (Db.query db "SELECT DISTINCT x FROM t ORDER BY x");
  Alcotest.check rows_t "limit offset" [ [ v_int 2 ]; [ v_int 3 ] ]
    (Db.query db "SELECT DISTINCT x FROM t ORDER BY x LIMIT 2 OFFSET 1");
  Db.close db

let test_update_delete () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)");
  ignore (Db.exec db "INSERT INTO t VALUES (1,1),(2,2),(3,3)");
  let r = Db.exec db "UPDATE t SET b = b * 10 WHERE a >= 2" in
  Alcotest.(check int) "updated" 2 r.Db.affected;
  Alcotest.check rows_t "after update" [ [ v_int 1 ]; [ v_int 20 ]; [ v_int 30 ] ]
    (Db.query db "SELECT b FROM t ORDER BY a");
  let r = Db.exec db "DELETE FROM t WHERE b = 20" in
  Alcotest.(check int) "deleted" 1 r.Db.affected;
  Alcotest.check rows_t "after delete" [ [ v_int 1 ]; [ v_int 3 ] ]
    (Db.query db "SELECT a FROM t ORDER BY a");
  Db.close db

let test_rowid_plan_and_pk () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(id INTEGER PRIMARY KEY, v TEXT)");
  ignore (Db.exec db "BEGIN");
  for i = 1 to 1000 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" i i))
  done;
  ignore (Db.exec db "COMMIT");
  Alcotest.check rows_t "pk point query" [ [ v_text "v500" ] ]
    (Db.query db "SELECT v FROM t WHERE id = 500");
  Alcotest.check rows_t "pk range" [ [ v_int 11 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE id BETWEEN 100 AND 110");
  Alcotest.check rows_t "rowid alias" [ [ v_text "v7" ] ]
    (Db.query db "SELECT v FROM t WHERE rowid = 7");
  (* duplicate pk rejected *)
  Alcotest.(check bool) "dup pk" true
    (try
       ignore (Db.exec db "INSERT INTO t VALUES (500, 'dup')");
       false
     with Db.Sql_error _ -> true);
  Db.close db

(* A rowid range whose upper bound is the least rowid reads the first
   leaf of a table of more than one page: that leaf's lower bound is
   its page's own, not the least rowid. *)
let test_rowid_range_least_rowid () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, s TEXT)");
  ignore (Db.exec db "INSERT INTO t VALUES (-9223372036854775808, 'least')");
  for _ = 1 to 300 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t(s) VALUES ('%s')" (String.make 40 'y')))
  done;
  List.iter
    (fun where ->
      Alcotest.check rows_t where [ [ v_int 1 ] ]
        (Db.query db ("SELECT count(*) FROM t WHERE " ^ where)))
    [ "a < -9223372036854775807"; "a + 0 < -9223372036854775807" ];
  Db.close db

(* An integer is compared with a real exactly, in an expression, a
   filter and an index seek: past 2^53 [Int64.to_float] rounds, and
   -9223372036854775808 parses as the real -2^63. *)
let test_int_real_compare () =
  let db = mem_db () in
  Alcotest.check rows_t "2^53 + 1 = 2^53 as a real" [ [ v_int 0 ] ]
    (Db.query db "SELECT 9007199254740993 = 9007199254740992.0");
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, s TEXT)");
  ignore (Db.exec db "INSERT INTO t VALUES (-9223372036854775808, 'least')");
  for _ = 1 to 300 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t(s) VALUES ('%s')" (String.make 40 'y')))
  done;
  Alcotest.check rows_t "a <= -2^63" [ [ v_int 1 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE a <= -9223372036854775808");
  ignore (Db.exec db "CREATE TABLE g(i INTEGER)");
  ignore (Db.exec db "CREATE INDEX gi ON g(i)");
  ignore (Db.exec db "INSERT INTO g VALUES (9007199254740992), (9007199254740993)");
  Alcotest.check rows_t "index seek" [ [ v_int 1 ] ]
    (Db.query db "SELECT count(*) FROM g WHERE i = 9007199254740992.0");
  Alcotest.check rows_t "filter" [ [ v_int 1 ] ]
    (Db.query db "SELECT count(*) FROM g WHERE i > 9007199254740992.0");
  Db.close db

(* Every name of a statement is bound once, before its first row: a
   qualifier names an alias (which hides its table's name), an
   unqualified name reads the first source with that column and an
   unqualified rowid the first source; an ORDER BY term is a result
   position, a result label in any case, or an expression, aggregates
   included, and each aggregate call has its own slot. *)
let test_names_bound_once () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER, b INTEGER)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 10), (2, 20), (3, 20), (4, 30), (5, 20)");
  ignore (Db.exec db "CREATE TABLE u(b INTEGER, c INTEGER)");
  ignore (Db.exec db "INSERT INTO u VALUES (7, 70)");
  let rows sql want = Alcotest.check rows_t sql want (Db.query db sql) in
  let ints = List.map (List.map v_int) in
  rows "SELECT a AS Foo FROM t ORDER BY foo DESC" (ints [ [ 5 ]; [ 4 ]; [ 3 ]; [ 2 ]; [ 1 ] ]);
  rows "SELECT b, count(*) FROM t GROUP BY b ORDER BY count(*) DESC, b"
    (ints [ [ 20; 3 ]; [ 10; 1 ]; [ 30; 1 ] ]);
  rows "SELECT b, count(*) FROM t GROUP BY b ORDER BY max(a) DESC"
    (ints [ [ 20; 3 ]; [ 30; 1 ]; [ 10; 1 ] ]);
  rows "SELECT b AS Grp, sum(a) FROM t GROUP BY b ORDER BY GRP DESC"
    (ints [ [ 30; 4 ]; [ 20; 10 ]; [ 10; 1 ] ]);
  rows "SELECT sum(((((((a+1)+1)+1)+1)+1)+1)+1), sum(((((((a+5)+1)+1)+1)+1)+1)+1) FROM t WHERE a <= 2"
    (ints [ [ 17; 25 ] ]);
  rows "SELECT x.b, c FROM t x JOIN u ON x.a = 1" (ints [ [ 10; 70 ] ]);
  rows "SELECT b, rowid FROM u JOIN t ON t.a = 2" (ints [ [ 7; 1 ] ]);
  rows "SELECT b, rowid FROM t JOIN u ON t.a = 2" (ints [ [ 20; 2 ] ]);
  rows "SELECT count(*), a FROM t WHERE a > 9" [ [ v_int 0; Value.Null ] ];
  List.iter
    (fun sql ->
      Alcotest.(check bool) ("rejects: " ^ sql) true
        (try
           ignore (Db.exec db sql);
           false
         with Db.Sql_error _ -> true))
    [ "SELECT nosuch FROM t WHERE 0";
      "SELECT a FROM t ORDER BY 5";
      "SELECT a FROM t ORDER BY 0";
      "SELECT t.a FROM t x";
      "SELECT a FROM t WHERE 0 AND count(*) > 0" ];
  Db.close db

(* DDL rebuilds the catalog tree and gives back the pages below its root,
   so a table costs its root page and its share of the catalog (200
   tables take 211 pages), and the tables load when the database is
   opened again. *)
let test_catalog_pages_linear () =
  let vfs = mem_vfs () in
  let db = Db.open_db ~vfs "cat.db" in
  let page_count () =
    match Db.query db "PRAGMA page_count" with
    | [ [ Value.Int n ] ] -> Int64.to_int n
    | _ -> Alcotest.fail "page_count"
  in
  for n = 1 to 200 do
    ignore
      (Db.exec db
         (Printf.sprintf "CREATE TABLE table_number_%d(a INTEGER PRIMARY KEY, b TEXT, c REAL, d BLOB)" n));
    if n mod 100 = 0 then
      let pages = page_count () in
      Alcotest.(check bool) (Printf.sprintf "%d pages for %d tables" pages n) true
        (pages <= n + (n / 10) + 2)
  done;
  Db.close db;
  let db = Db.open_db ~vfs "cat.db" in
  ignore (Db.exec db "INSERT INTO table_number_137(b) VALUES ('x')");
  Alcotest.check rows_t "a table after reopening" [ [ v_int 1 ] ]
    (Db.query db "SELECT count(*) FROM table_number_137");
  Db.close db

let test_secondary_index () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(id INTEGER PRIMARY KEY, name TEXT, age INTEGER)");
  ignore (Db.exec db "BEGIN");
  for i = 1 to 500 do
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO t VALUES (%d, 'user%03d', %d)" i (i mod 100) (i mod 50)))
  done;
  ignore (Db.exec db "COMMIT");
  ignore (Db.exec db "CREATE INDEX t_name ON t(name)");
  Alcotest.check rows_t "index eq lookup" [ [ v_int 5 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE name = 'user042'");
  (* index must stay consistent through update/delete *)
  ignore (Db.exec db "UPDATE t SET name = 'renamed' WHERE id = 42");
  Alcotest.check rows_t "after update" [ [ v_int 4 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE name = 'user042'");
  Alcotest.check rows_t "renamed found" [ [ v_int 1 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE name = 'renamed'");
  ignore (Db.exec db "DELETE FROM t WHERE name = 'renamed'");
  Alcotest.check rows_t "after delete" [ [ v_int 0 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE name = 'renamed'");
  Db.close db

let test_unique_index () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE u(id INTEGER PRIMARY KEY, email TEXT)");
  ignore (Db.exec db "CREATE UNIQUE INDEX u_email ON u(email)");
  ignore (Db.exec db "INSERT INTO u VALUES (1, 'a@x.com')");
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Db.exec db "INSERT INTO u VALUES (2, 'a@x.com')");
       false
     with Db.Sql_error _ -> true);
  ignore (Db.exec db "INSERT INTO u VALUES (3, 'b@x.com')");
  Alcotest.check rows_t "two rows" [ [ v_int 2 ] ] (Db.query db "SELECT count(*) FROM u");
  Db.close db

let test_join () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE dept(id INTEGER PRIMARY KEY, dname TEXT)");
  ignore (Db.exec db "CREATE TABLE emp(id INTEGER PRIMARY KEY, ename TEXT, dept_id INTEGER)");
  ignore (Db.exec db "INSERT INTO dept VALUES (1,'eng'),(2,'ops')");
  ignore
    (Db.exec db "INSERT INTO emp VALUES (1,'ada',1),(2,'bob',2),(3,'cyd',1)");
  Alcotest.check rows_t "join"
    [ [ v_text "ada"; v_text "eng" ]; [ v_text "bob"; v_text "ops" ];
      [ v_text "cyd"; v_text "eng" ] ]
    (Db.query db
       "SELECT e.ename, d.dname FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.id");
  Alcotest.check rows_t "join + where + group"
    [ [ v_text "eng"; v_int 2 ] ]
    (Db.query db
       "SELECT d.dname, count(*) FROM emp e JOIN dept d ON e.dept_id = d.id GROUP BY d.dname ORDER BY count(*) DESC LIMIT 1");
  Db.close db

(* A table alias written with AS reads as the bare form does, in FROM and
   in JOIN. *)
let test_as_table_alias () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER, b TEXT)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  Alcotest.check rows_t "FROM t AS x" [ [ v_int 1 ]; [ v_int 2 ] ]
    (Db.query db "SELECT x.a FROM t AS x ORDER BY x.a");
  let bare = Db.query db "SELECT x.a, y.b FROM t x JOIN t y ON x.a = y.a ORDER BY x.a" in
  Alcotest.check rows_t "JOIN t AS y" bare
    (Db.query db "SELECT x.a, y.b FROM t AS x JOIN t AS y ON x.a = y.a ORDER BY x.a");
  Alcotest.check rows_t "INNER JOIN t AS y" bare
    (Db.query db "SELECT x.a, y.b FROM t x INNER JOIN t AS y ON x.a = y.a ORDER BY x.a");
  Alcotest.check rows_t "alias qualifies a WHERE column" [ [ v_text "y" ] ]
    (Db.query db "SELECT z.b FROM t AS z WHERE z.a = 2");
  Db.close db

let test_transactions () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER)");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO t VALUES (1)");
  ignore (Db.exec db "INSERT INTO t VALUES (2)");
  ignore (Db.exec db "ROLLBACK");
  Alcotest.check rows_t "rolled back" [ [ v_int 0 ] ] (Db.query db "SELECT count(*) FROM t");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO t VALUES (3)");
  ignore (Db.exec db "COMMIT");
  Alcotest.check rows_t "committed" [ [ v_int 1 ] ] (Db.query db "SELECT count(*) FROM t");
  Db.close db

let test_persistence () =
  let vfs = mem_vfs () in
  let db = Db.open_db ~vfs "test.db" in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)");
  ignore (Db.exec db "CREATE INDEX t_b ON t(b)");
  ignore (Db.exec db "INSERT INTO t VALUES (1,'x'),(2,'y')");
  Db.close db;
  let db2 = Db.open_db ~vfs "test.db" in
  Alcotest.check rows_t "schema + data survive" [ [ v_int 1; v_text "x" ]; [ v_int 2; v_text "y" ] ]
    (Db.query db2 "SELECT a, b FROM t ORDER BY a");
  Alcotest.check rows_t "index survives" [ [ v_int 1 ] ]
    (Db.query db2 "SELECT count(*) FROM t WHERE b = 'y'");
  Db.close db2

let test_drop_and_vacuum () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER)");
  ignore (Db.exec db "CREATE TABLE keepme(a INTEGER)");
  ignore (Db.exec db "INSERT INTO keepme VALUES (42)");
  ignore (Db.exec db "DROP TABLE t");
  Alcotest.(check bool) "dropped" true
    (try
       ignore (Db.query db "SELECT * FROM t");
       false
     with Db.Sql_error _ -> true);
  ignore (Db.exec db "DROP TABLE IF EXISTS t");
  ignore (Db.exec db "VACUUM");
  Alcotest.check rows_t "data survives vacuum" [ [ v_int 42 ] ]
    (Db.query db "SELECT a FROM keepme");
  Db.close db

let test_analyze () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)");
  ignore (Db.exec db "CREATE INDEX t_b ON t(b)");
  ignore (Db.exec db "INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z')");
  ignore (Db.exec db "ANALYZE");
  Alcotest.check rows_t "table stat" [ [ v_int 3 ] ]
    (Db.query db "SELECT stat FROM stat1 WHERE tbl = 't' AND idx IS NULL");
  Alcotest.check rows_t "index stat" [ [ v_int 3 ] ]
    (Db.query db "SELECT stat FROM stat1 WHERE idx = 't_b'");
  Db.close db

let test_pragma_cache_size () =
  let db = mem_db () in
  ignore (Db.exec db "PRAGMA cache_size = 64");
  ignore (Db.exec db "CREATE TABLE t(a INTEGER)");
  ignore (Db.exec db "INSERT INTO t VALUES (1)");
  Alcotest.check rows_t "still works" [ [ v_int 1 ] ] (Db.query db "SELECT a FROM t");
  let r = Db.exec db "PRAGMA page_size" in
  Alcotest.check rows_t "page size" [ [ v_int 4096 ] ] r.Db.rows;
  Db.close db

let test_not_null_and_default () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER NOT NULL, b TEXT DEFAULT 'dflt')");
  Alcotest.(check bool) "not null rejected" true
    (try
       ignore (Db.exec db "INSERT INTO t(a) VALUES (NULL)");
       false
     with Db.Sql_error _ -> true);
  ignore (Db.exec db "INSERT INTO t(a) VALUES (1)");
  Alcotest.check rows_t "default applied" [ [ v_text "dflt" ] ]
    (Db.query db "SELECT b FROM t");
  Db.close db

(* The catalog stores a column's DEFAULT, so it survives ROLLBACK's
   catalog reload and a reopen; each default reads back as the same
   expression, so an INSERT that fills it in books the same work. *)
let default_ddl =
  "CREATE TABLE t(a INTEGER, b TEXT DEFAULT 'it''s', c DEFAULT -1.5, d DEFAULT (2 * 3), \
   e BLOB DEFAULT x'00ff', f DEFAULT NULL, g DEFAULT 1e30, h REAL DEFAULT 7.0)"

let defaults_row a =
  [ v_int a; v_text "it's"; Value.Real (-1.5); v_int 6; Value.Blob "\x00\xff"; Value.Null;
    Value.Real 1e30; Value.Real 7.0 ]

let insert_work db a =
  Db.reset_work db;
  ignore (Db.exec db (Printf.sprintf "INSERT INTO t(a) VALUES (%d)" a));
  Db.work db

let default_rows db = Db.query db "SELECT * FROM t ORDER BY a"

(* A prepared INSERT bound before the reload binds again and fills the
   defaults in too. *)
let test_default_after_rollback () =
  let db = mem_db () in
  ignore (Db.exec db default_ddl);
  let work = insert_work db 1 in
  let ins = Db.prepare db "INSERT INTO t(a) VALUES (?)" in
  ignore (Db.step ins [| v_int 2 |]);
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "ROLLBACK");
  Alcotest.(check int) "same work" work (insert_work db 3);
  ignore (Db.step ins [| v_int 4 |]);
  Alcotest.check rows_t "defaults" (List.map defaults_row [ 1; 2; 3; 4 ]) (default_rows db);
  Db.close db

let test_default_after_reopen () =
  let vfs = mem_vfs () in
  let db = Db.open_db ~vfs "d.db" in
  ignore (Db.exec db default_ddl);
  let work = insert_work db 1 in
  Db.close db;
  let db = Db.open_db ~vfs "d.db" in
  Alcotest.(check int) "same work" work (insert_work db 2);
  Alcotest.check rows_t "defaults" (List.map defaults_row [ 1; 2 ]) (default_rows db);
  Db.close db

(* Column and index names holding ';', ':' or '%' keep their bytes
   through the catalog's reload, after ROLLBACK and after reopening. *)
let test_catalog_names () =
  let vfs = mem_vfs () in
  let db = Db.open_db ~vfs "c.db" in
  List.iter
    (fun sql -> ignore (Db.exec db sql))
    [ {|CREATE TABLE t("a;b" INTEGER, "c:d%3b" TEXT)|}; {|CREATE INDEX ti ON t("c:d%3b", "a;b")|};
      "INSERT INTO t VALUES (1, 'x'), (2, 'y')"; "BEGIN"; "ROLLBACK" ];
  let check db when_ =
    let r = Db.exec db {|SELECT * FROM t WHERE "c:d%3b" = 'y'|} in
    Alcotest.(check (list string)) ("columns " ^ when_) [ "a;b"; "c:d%3b" ] r.Db.columns;
    Alcotest.check rows_t ("rows " ^ when_) [ [ v_int 2; v_text "y" ] ] r.Db.rows
  in
  check db "after ROLLBACK";
  Db.close db;
  let db = Db.open_db ~vfs "c.db" in
  check db "after reopening";
  Db.close db

let test_sql_errors () =
  let db = mem_db () in
  List.iter
    (fun sql ->
      Alcotest.(check bool) ("rejects: " ^ sql) true
        (try
           ignore (Db.exec db sql);
           false
         with Db.Sql_error _ | Parser.Error _ -> true))
    [ "SELECT * FROM missing";
      "FROBNICATE";
      "INSERT INTO missing VALUES (1)";
      "SELECT nosuchcol FROM missing";
      "CREATE TABLE" ];
  Db.close db

(* A [?] is bound by [Db.step], one value per parameter; anything else
   is a typed error, never a wrong answer. *)
let test_parameter_errors () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  let sql_error name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Db.Sql_error _ -> true)
  in
  let counted name f want =
    match f () with
    | _ -> Alcotest.failf "%s: no error" name
    | exception Db.Sql_error msg ->
        Alcotest.(check bool) (name ^ " names the count: " ^ msg) true
          (String.starts_with ~prefix:want msg)
  in
  counted "exec binds none" (fun () -> Db.exec db "SELECT a FROM t WHERE a = ?")
    "statement has 1 parameter(s), 0 value(s) bound";
  counted "exec binds none of two" (fun () -> Db.exec db "SELECT ? + ?")
    "statement has 2 parameter(s), 0 value(s) bound";
  let stmt = Db.prepare db "SELECT b FROM t WHERE a = ? OR a = ?" in
  sql_error "too few values" (fun () -> Db.step stmt [| v_int 1 |]);
  sql_error "too many values" (fun () -> Db.step stmt [| v_int 1; v_int 2; v_int 3 |]);
  Alcotest.check rows_t "bound left to right" [ [ v_text "x" ]; [ v_text "y" ] ]
    (Db.step stmt [| v_int 1; v_int 2 |]).Db.rows;
  sql_error "prepare of nothing" (fun () -> Db.prepare db " ; ");
  sql_error "prepare of two statements" (fun () -> Db.prepare db "SELECT 1; SELECT 2");
  Alcotest.(check bool) "no parameter in a DEFAULT" true
    (try
       ignore (Db.exec db "CREATE TABLE u(a DEFAULT ?)");
       false
     with Parser.Error _ -> true);
  Db.close db

let test_random_functions () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(r INTEGER, b BLOB)");
  ignore (Db.exec db "INSERT INTO t VALUES (random(), randomblob(16))");
  (match Db.query db "SELECT length(b) FROM t" with
  | [ [ v ] ] -> Alcotest.check value_t "blob length" (v_int 16) v
  | _ -> Alcotest.fail "no rows");
  Db.close db

(* A rowid lookup walks the cells where they lie: only the row it returns
   is copied out of the page. Over 2 000 rows, the point SELECT allocated
   2 266 minor words while table pages were decoded into cell lists, and
   1 102 while every statement rendered its EXPLAIN details. Prepared, a
   step parses and binds nothing and decodes only the columns the
   statement reads; as text, the range shape allocated 8 237 while a
   scalar aggregate hashed an empty group key for each row, and 3 870
   prepared while each joined row was stored and then restored for each
   operator. *)
let test_point_select_allocation () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE kv(k INTEGER PRIMARY KEY, v TEXT, w INTEGER)");
  ignore (Db.exec db "BEGIN");
  for i = 1 to 2000 do
    ignore
      (Db.exec db (Printf.sprintf "INSERT INTO kv VALUES (%d, 'value-%d', %d)" i i (i mod 100)))
  done;
  ignore (Db.exec db "COMMIT");
  let words () =
    let before = Gc.minor_words () in
    ignore (Db.query db "SELECT v FROM kv WHERE k = 1");
    Gc.minor_words () -. before
  in
  ignore (words ());
  let w = words () in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" w) true (w < 1600.);
  let stepped sql values bound =
    let stmt = Db.prepare db sql in
    let words () =
      let before = Gc.minor_words () in
      ignore (Db.step stmt values);
      Gc.minor_words () -. before
    in
    ignore (words ());
    let w = words () in
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f minor words" sql w) true (w < bound)
  in
  stepped "SELECT v FROM kv WHERE k = ?" [| v_int 1 |] 650.;
  stepped "SELECT count(*), sum(w) FROM kv WHERE k >= ? AND k < ?"
    [| v_int 100; v_int 150 |] 3600.;
  Db.close db

let test_multi_statement_exec () =
  let db = mem_db () in
  let r =
    Db.exec db
      "CREATE TABLE t(a INTEGER); INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); SELECT sum(a) FROM t"
  in
  Alcotest.check rows_t "last result" [ [ v_int 3 ] ] r.Db.rows;
  Db.close db

(* --- EXPLAIN / operator observability --- *)

(* Every statement kind accepts the EXPLAIN [ANALYZE] prefix, and the
   wrapped AST is exactly the bare statement's AST. *)
let test_explain_roundtrip () =
  let kinds =
    [ "SELECT a FROM t WHERE a = 1";
      "INSERT INTO t VALUES (1)";
      "UPDATE t SET a = 2 WHERE a = 1";
      "DELETE FROM t WHERE a = 1";
      "CREATE TABLE u (x INTEGER)";
      "CREATE INDEX i ON t (a)";
      "DROP TABLE u";
      "DROP INDEX i";
      "BEGIN";
      "COMMIT";
      "ROLLBACK";
      "PRAGMA cache_size = 64";
      "ANALYZE";
      "VACUUM" ]
  in
  List.iter
    (fun sql ->
      let bare =
        match Parser.parse sql with
        | [ s ] -> s
        | _ -> Alcotest.failf "multi-parse: %s" sql
      in
      (match Parser.parse ("EXPLAIN " ^ sql) with
      | [ Sql_ast.Explain { ex_analyze = false; ex_stmt } ] ->
          Alcotest.(check bool) ("explain wraps: " ^ sql) true (ex_stmt = bare)
      | _ -> Alcotest.failf "EXPLAIN did not wrap: %s" sql);
      match Parser.parse ("EXPLAIN ANALYZE " ^ sql) with
      | [ Sql_ast.Explain { ex_analyze = true; ex_stmt } ] ->
          Alcotest.(check bool)
            ("explain analyze wraps: " ^ sql)
            true (ex_stmt = bare)
      | _ -> Alcotest.failf "EXPLAIN ANALYZE did not wrap: %s" sql)
    kinds;
  (* nested EXPLAIN parses but is rejected at execution *)
  let db = mem_db () in
  Alcotest.(check bool) "nested explain rejected" true
    (try
       ignore (Db.exec db "EXPLAIN EXPLAIN SELECT 1");
       false
     with Db.Sql_error _ -> true);
  Db.close db

let plan_lines r =
  Alcotest.(check (list string)) "plan column" [ "plan" ] r.Db.columns;
  List.map
    (function [ Value.Text l ] -> l | _ -> Alcotest.fail "non-text plan row")
    r.Db.rows

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_explain_output () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)");
  ignore (Db.exec db "INSERT INTO t VALUES (1,10),(2,20),(3,30)");
  (* EXPLAIN: plan tree only, no execution, estimates unknown pre-ANALYZE *)
  let plain = plan_lines (Db.exec db "EXPLAIN SELECT b FROM t WHERE a = 2") in
  Alcotest.(check bool) "project line" true
    (List.exists (contains ~sub:"project(b)") plain);
  Alcotest.(check bool) "rowid access path" true
    (List.exists (contains ~sub:"rowid [2..2]") plain);
  Alcotest.(check bool) "no estimate before analyze" true
    (List.for_all (contains ~sub:"est=-") plain);
  (* EXPLAIN ANALYZE: actuals appear *)
  let an = plan_lines (Db.exec db "EXPLAIN ANALYZE SELECT b FROM t WHERE a >= 2") in
  Alcotest.(check bool) "actual rows out" true
    (List.exists (contains ~sub:"out=2") an);
  Alcotest.(check bool) "work attributed" true
    (List.exists (contains ~sub:"work=") an);
  (* ANALYZE, then estimates show up next to actuals *)
  ignore (Db.exec db "ANALYZE");
  let an2 = plan_lines (Db.exec db "EXPLAIN ANALYZE SELECT b FROM t WHERE a >= 2") in
  Alcotest.(check bool) "estimate after analyze" true
    (List.exists (contains ~sub:"est=2") an2);
  (* cycles column appears once a ns-per-work hint is installed *)
  Db.set_ns_per_work db 10.;
  let an3 = plan_lines (Db.exec db "EXPLAIN ANALYZE SELECT b FROM t") in
  Alcotest.(check bool) "cycles rendered" true
    (List.exists (contains ~sub:"cycles=") an3);
  Db.close db

(* The zero-residue conservation law: for every statement kind, booked
   work = sum of operator self-work + profiling overhead, exactly. *)
let test_operator_conservation () =
  let db = mem_db () in
  List.iter
    (fun sql -> ignore (Db.exec db sql))
    [ "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)";
      "CREATE INDEX t_b ON t (b)";
      "INSERT INTO t VALUES (1, 5, 'x'), (2, 5, 'y'), (3, 7, 'z'), (4, 8, 'w')";
      "SELECT * FROM t WHERE a >= 2 AND c <> 'q' ORDER BY b LIMIT 2";
      "SELECT b, count(*) FROM t GROUP BY b";
      "SELECT DISTINCT b FROM t";
      "SELECT t1.a, t2.b FROM t t1 JOIN t t2 ON t1.a = t2.a";
      "UPDATE t SET c = 'u' WHERE b = 5";
      "DELETE FROM t WHERE a = 4";
      "ANALYZE";
      "SELECT count(*), sum(b) FROM t WHERE a >= 1 AND a < 3";
      "VACUUM";
      "EXPLAIN SELECT * FROM t" ];
  let profiles = Db.profiles db in
  Alcotest.(check bool) "profiles recorded" true (List.length profiles >= 13);
  List.iter
    (fun (p : Db.profile) ->
      let a = Db.audit p in
      Alcotest.(check bool) ("conservation: " ^ p.Db.pr_stmt) true
        (Twine_obs.Audit.ok a);
      Alcotest.(check int) "one part per operator, plus the overhead"
        (List.length p.Db.pr_ops + 1) (List.length a.Twine_obs.Audit.parts))
    profiles;
  Db.close db

(* Satellite: the sqldb.plan counters make silent access-path flips
   (index -> full scan) visible. *)
let test_plan_counters () =
  let obs = Twine_obs.Obs.create () in
  let db = Db.open_db ~obs ":memory:" in
  ignore (Db.exec db "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)");
  ignore (Db.exec db "CREATE INDEX t_b ON t (b)");
  ignore (Db.exec db "INSERT INTO t VALUES (1,10),(2,20),(3,30)");
  let v k = Twine_obs.Obs.value obs ("sqldb.plan." ^ k) in
  let base_full = v "full_scan" in
  ignore (Db.query db "SELECT * FROM t WHERE a = 2");
  Alcotest.(check int) "rowid path" 1 (v "rowid_range");
  ignore (Db.query db "SELECT * FROM t WHERE b = 20");
  Alcotest.(check int) "index path" 1 (v "index_range");
  ignore (Db.query db "SELECT * FROM t WHERE b + 1 = 21");
  Alcotest.(check int) "fallback counted" 1 (v "fallback");
  Alcotest.(check int) "fallback is a full scan" (base_full + 1) (v "full_scan");
  (* a probed join plans each source once per statement, not per probe *)
  ignore (Db.exec db "CREATE TABLE u (a INTEGER PRIMARY KEY, ta INTEGER)");
  ignore (Db.exec db "INSERT INTO u VALUES (1,1),(2,3),(3,3),(4,NULL)");
  let full = v "full_scan" in
  Alcotest.check rows_t "rowid probe" [ [ v_int 3 ] ]
    (Db.query db "SELECT count(*) FROM u JOIN t ON t.a = u.ta");
  Alcotest.(check int) "rowid probe counted once" 2 (v "rowid_range");
  Alcotest.(check int) "driving table scanned once" (full + 1) (v "full_scan");
  Alcotest.check rows_t "index probe" [ [ v_int 3 ] ]
    (Db.query db "SELECT count(*) FROM u JOIN t ON t.b = u.ta * 10");
  Alcotest.(check int) "index probe counted once" 2 (v "index_range");
  Alcotest.(check int) "no fallback for a join" 1 (v "fallback");
  let plan =
    plan_lines (Db.exec db "EXPLAIN ANALYZE SELECT count(*) FROM u JOIN t ON t.a = u.ta")
  in
  Alcotest.(check bool) "EXPLAIN names the probe, one loop per outer row" true
    (List.exists (contains ~sub:"scan(t: rowid = u.ta) est=- in=0 out=3 loops=4") plan);
  ignore (Db.exec db "ANALYZE");
  let est sql = plan_lines (Db.exec db ("EXPLAIN " ^ sql)) in
  Alcotest.(check bool) "a rowid probe estimates one row per loop" true
    (List.exists (contains ~sub:"scan(t: rowid = u.ta) est=1")
       (est "SELECT * FROM u JOIN t ON u.ta = t.rowid"));
  Alcotest.(check bool) "an index probe estimates from the column's statistics" true
    (List.exists (contains ~sub:"scan(t: index t_b (b=(u.ta * 10))) est=1")
       (est "SELECT * FROM u JOIN t ON t.b = u.ta * 10"));
  Db.close db

(* --- ANALYZE statistics catalog (satellite 3) --- *)

let test_analyze_stat_tables () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)");
  ignore
    (Db.exec db
       "INSERT INTO t VALUES (1, 5, 'x'), (2, 5, NULL), (3, 7, 'y'), (4, 8, NULL)");
  ignore (Db.exec db "ANALYZE");
  (* per-column distinct / null counts *)
  Alcotest.check rows_t "ndistinct b" [ [ v_int 3; v_int 0 ] ]
    (Db.query db "SELECT ndistinct, nnull FROM stat_col WHERE tbl = 't' AND col = 'b'");
  Alcotest.check rows_t "nnull c" [ [ v_int 2; v_int 2 ] ]
    (Db.query db "SELECT ndistinct, nnull FROM stat_col WHERE tbl = 't' AND col = 'c'");
  (* histogram invariants: monotone bounds, bucket counts sum to the
     non-null row count *)
  let hist col =
    List.map
      (function
        | [ lo; hi; Value.Int n ] -> (lo, hi, Int64.to_int n)
        | _ -> Alcotest.fail "bad hist row")
      (Db.query db
         (Printf.sprintf
            "SELECT lo, hi, cnt FROM stat_hist WHERE tbl = 't' AND col = '%s' ORDER BY bucket"
            col))
  in
  let check_hist col non_null =
    let h = hist col in
    Alcotest.(check bool) (col ^ ": non-empty") true (h <> []);
    Alcotest.(check int)
      (col ^ ": counts sum to rows")
      non_null
      (List.fold_left (fun a (_, _, n) -> a + n) 0 h);
    let rec mono = function
      | (lo, hi, _) :: ((lo2, _, _) :: _ as rest) ->
          Value.compare lo hi <= 0 && Value.compare hi lo2 <= 0 && mono rest
      | [ (lo, hi, _) ] -> Value.compare lo hi <= 0
      | [] -> true
    in
    Alcotest.(check bool) (col ^ ": monotone bounds") true (mono h)
  in
  check_hist "b" 4;
  check_hist "c" 2;
  (* DELETE then re-ANALYZE refreshes the stat tables in place *)
  ignore (Db.exec db "DELETE FROM t WHERE a >= 3");
  ignore (Db.exec db "ANALYZE");
  Alcotest.check rows_t "row count after delete" [ [ v_int 2 ] ]
    (Db.query db "SELECT stat FROM stat1 WHERE tbl = 't' AND idx IS NULL");
  check_hist "b" 2;
  (* VACUUM preserves the catalog; ANALYZE after INSERT sees new rows;
     stat tables never appear in their own statistics *)
  ignore (Db.exec db "VACUUM");
  ignore (Db.exec db "INSERT INTO t VALUES (9, 9, 'q')");
  ignore (Db.exec db "ANALYZE");
  Alcotest.check rows_t "row count after vacuum+insert" [ [ v_int 3 ] ]
    (Db.query db "SELECT stat FROM stat1 WHERE tbl = 't' AND idx IS NULL");
  Alcotest.check rows_t "stat tables not self-analyzed" []
    (Db.query db "SELECT stat FROM stat1 WHERE tbl = 'stat1'");
  (* ANALYZE-then-EXPLAIN: the estimate reflects the fresh statistics *)
  let lines = plan_lines (Db.exec db "EXPLAIN SELECT * FROM t WHERE a >= 1") in
  Alcotest.(check bool) "estimate from stats" true
    (List.exists (contains ~sub:"est=3") lines);
  Db.close db

(* --- query-stats registry --- *)

let test_fingerprint () =
  let fp = Sqlstat.fingerprint in
  (* literals collapse, so parameterized statements share a key *)
  Alcotest.(check string) "int literal"
    (fp "SELECT v FROM kv WHERE k = 1")
    (fp "SELECT v FROM kv WHERE k = 999");
  Alcotest.(check string) "string and float literals"
    (fp "INSERT INTO t VALUES ('abc', 1.5)")
    (fp "INSERT INTO t VALUES ('zzz', 99.0)");
  (* identifier case folds; keyword case folds *)
  Alcotest.(check string) "identifier case"
    (fp "select V from KV where K = 3")
    (fp "SELECT v FROM kv WHERE k = 4");
  (* whitespace normalizes *)
  Alcotest.(check string) "whitespace"
    (fp "SELECT  a   FROM t")
    (fp "SELECT a FROM t");
  (* different shapes stay distinct *)
  Alcotest.(check bool) "shapes distinct" true
    (fp "SELECT a FROM t" <> fp "SELECT b FROM t");
  Alcotest.(check string) "rendered form" "SELECT v FROM kv WHERE k = ?"
    (fp "SELECT v FROM kv WHERE k = 42");
  (* a prepared statement shares its literal texts' key; NULL is a
     literal except where IS NULL or NOT NULL spell it *)
  Alcotest.(check string) "parameters" (fp "SELECT v FROM kv WHERE k = ?")
    (fp "SELECT v FROM kv WHERE k = 7");
  Alcotest.(check string) "NULL literal" (fp "INSERT INTO t VALUES (?, ?)")
    (fp "INSERT INTO t VALUES (NULL, 'x')");
  Alcotest.(check string) "IS NULL" "SELECT a FROM t WHERE b IS NOT NULL OR c IS NULL"
    (fp "SELECT a FROM t WHERE b IS NOT NULL OR c IS NULL");
  Alcotest.(check string) "NOT NULL" "CREATE TABLE t ( a INTEGER NOT NULL )"
    (fp "CREATE TABLE t(a INTEGER NOT NULL)")

let test_sqlstat_registry () =
  let reg = Sqlstat.create () in
  let record ?(label = "point") fp lat =
    Sqlstat.record reg ~label ~fingerprint:fp ~rows:1 ~work:10 ~reads:2
      ~writes:1 ~exec_ns:600 ~pager_ns:50 ~latency_ns:lat ()
  in
  record "SELECT a FROM t WHERE a = ?" 1000;
  record "SELECT a FROM t WHERE a = ?" 3000;
  record ~label:"kv" "SELECT v FROM kv WHERE k = ?" 2000;
  (match Sqlstat.entries reg with
  | [ pt; kv ] ->
      Alcotest.(check string) "sorted by fingerprint" "SELECT a FROM t WHERE a = ?"
        pt.Sqlstat.sq_fingerprint;
      Alcotest.(check int) "count" 2 pt.Sqlstat.sq_count;
      Alcotest.(check int) "rows" 2 pt.Sqlstat.sq_rows;
      Alcotest.(check int) "exec_ns" 1200 pt.Sqlstat.sq_exec_ns;
      Alcotest.(check int) "kv count" 1 kv.Sqlstat.sq_count;
      Alcotest.(check string) "label" "kv" kv.Sqlstat.sq_label
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  (* merge is pure and commutative; JSON is canonical *)
  let reg2 = Sqlstat.create () in
  Sqlstat.record reg2 ~label:"point" ~fingerprint:"SELECT a FROM t WHERE a = ?"
    ~rows:5 ~work:1 ~reads:0 ~writes:0 ~exec_ns:60 ~pager_ns:0 ~latency_ns:500 ();
  let m1 = Sqlstat.merge reg reg2 and m2 = Sqlstat.merge reg2 reg in
  Alcotest.(check string) "merge commutes (canonical JSON)"
    (Twine_obs.Json.to_string (Sqlstat.to_json m1))
    (Twine_obs.Json.to_string (Sqlstat.to_json m2));
  (match Sqlstat.entries m1 with
  | [ pt; _ ] ->
      Alcotest.(check int) "merged count" 3 pt.Sqlstat.sq_count;
      Alcotest.(check int) "merged rows" 7 pt.Sqlstat.sq_rows;
      Alcotest.(check bool) "p50 within inserted range" true
        (let p = Sqlstat.quantile_ns pt 0.5 in
         p >= 500 && p <= 3000)
  | _ -> Alcotest.fail "merge lost entries");
  (* the sources were not mutated by merge *)
  Alcotest.(check int) "source untouched" 2
    (match Sqlstat.entries reg with
    | [ pt; _ ] -> pt.Sqlstat.sq_count
    | _ -> -1)

let test_slice_ns () =
  (* slices sum exactly to the total (zero residue), in proportion *)
  let check name total works =
    let s = Db.slice_ns ~total_ns:total works in
    Alcotest.(check int) (name ^ ": length") (List.length works) (List.length s);
    Alcotest.(check int) (name ^ ": sums to total") total
      (List.fold_left ( + ) 0 s);
    List.iter (fun x -> Alcotest.(check bool) (name ^ ": non-negative") true (x >= 0)) s
  in
  check "even" 1000 [ 1; 1; 1; 1 ];
  check "skewed" 997 [ 90; 9; 1 ];
  check "one" 123 [ 7 ];
  check "zeros" 55 [ 0; 0; 0 ];
  check "big" 1_000_000_007 [ 3; 5; 7; 11; 13 ];
  Alcotest.(check (list int)) "empty" [] (Db.slice_ns ~total_ns:100 []);
  Alcotest.(check (list int)) "proportional" [ 250; 750 ]
    (Db.slice_ns ~total_ns:1000 [ 1; 3 ])

(* --- Page images --- *)

(* A scripted workload over indexes on INTEGER, REAL, TEXT and BLOB
   columns: NULLs, integers past 2^53, -0.0, text with shared prefixes,
   blob keys long enough to split interior pages, deletes, updates, an
   index built over existing rows, VACUUM and DROP INDEX. Returns the
   MD5 of the database file, of the query results, and the pager's work
   units and page accesses. *)
let golden_workload () =
  let backing = Twine_sim.Backing.memory () in
  let work = ref 0 and accesses = ref 0 in
  let hooks = Pager.default_hooks () in
  hooks.on_work <- (fun n -> work := !work + n);
  hooks.on_access <- (fun _ -> incr accesses);
  let db = Db.open_db ~vfs:(Svfs.of_backing backing) ~hooks "g.db" in
  let results = Buffer.create 4096 in
  let exec sql = ignore (Db.exec db sql) in
  let query sql =
    List.iter
      (fun row ->
        List.iter (fun v -> Buffer.add_string results (Value.to_string v ^ ",")) row;
        Buffer.add_char results '\n')
      (Db.query db sql)
  in
  let drbg = Twine_crypto.Drbg.create ~seed:"golden page images" () in
  let pick n = Twine_crypto.Drbg.int_below drbg n in
  let int_lit () =
    match pick 10 with
    | 0 -> "NULL"
    | 1 -> Int64.to_string (Int64.add 9007199254740992L (Int64.of_int (pick 4)))
    | 2 -> string_of_int (-pick 100)
    | _ -> string_of_int (pick 400)
  in
  let real_lit () =
    match pick 12 with
    | 0 -> "NULL"
    | 1 -> "0.0"
    | 2 -> "-0.0"
    | 3 -> "1e300"
    | 4 -> "9007199254740993.0"
    | _ -> Printf.sprintf "%d.%d" (pick 200 - 100) (pick 1000)
  in
  let text_lit () =
    if pick 10 = 0 then "NULL"
    else
      Printf.sprintf "'%s%d%s'"
        (List.nth [ "alpha"; "alphabet"; "beta"; "" ] (pick 4))
        (pick 1000) (String.make (pick 40) 'z')
  in
  let blob_lit () = if pick 10 = 0 then "NULL" else Printf.sprintf "randomblob(%d)" (pick 300) in
  let insert id =
    exec
      (Printf.sprintf "INSERT INTO g VALUES (%d, %s, %s, %s, %s, %d)" id (int_lit ())
         (real_lit ()) (text_lit ()) (blob_lit ()) (id * 7919 mod 100003))
  in
  List.iter exec
    [ "CREATE TABLE g(id INTEGER PRIMARY KEY, i INTEGER, r REAL, s TEXT, b BLOB, u INTEGER)";
      "CREATE INDEX gi ON g(i)"; "CREATE INDEX gr ON g(r)"; "CREATE INDEX gs ON g(s)";
      "CREATE INDEX gb ON g(b)"; "CREATE INDEX gis ON g(i, s)";
      "CREATE UNIQUE INDEX gu ON g(u)"; "BEGIN" ];
  for id = 1 to 1200 do insert id done;
  exec "COMMIT";
  for id = 1201 to 1300 do insert id done;
  let queries () =
    List.iter query
      [ "SELECT count(*) FROM g WHERE i = 42";
        "SELECT count(*), min(s), max(s) FROM g WHERE s >= 'beta'";
        "SELECT id FROM g WHERE r BETWEEN -10.5 AND 10.5 ORDER BY id";
        "SELECT count(*) FROM g WHERE b >= x'80'";
        "SELECT id, i FROM g WHERE i >= 9007199254740992 ORDER BY id";
        "SELECT count(*) FROM g WHERE u = 7919" ]
  in
  queries ();
  List.iter exec
    [ "DELETE FROM g WHERE id % 7 = 3";
      "UPDATE g SET s = s || 'q', i = i + 1 WHERE id % 5 = 1";
      "UPDATE g SET b = randomblob(40) WHERE id % 11 = 2";
      "UPDATE g SET r = -r WHERE id % 13 = 4";
      "CREATE INDEX gri ON g(r, i)" ];
  queries ();
  exec "VACUUM";
  exec "DELETE FROM g WHERE id % 3 = 0";
  for id = 1301 to 1400 do insert id done;
  exec "DROP INDEX gr";
  queries ();
  Db.close db;
  let file =
    let n = Option.value (Twine_sim.Backing.size backing "g.db") ~default:0 in
    Twine_sim.Backing.read backing "g.db" ~pos:0 ~len:n
  in
  ( Digest.to_hex (Digest.string file),
    Digest.to_hex (Digest.string (Buffer.contents results)),
    !work,
    !accesses )

(* Recorded while B-tree pages were decoded and re-encoded whole: the
   page images, the results and the pager calls must not depend on how
   pages are edited. *)
let test_golden_page_images () =
  let file, results, work, accesses = golden_workload () in
  Alcotest.(check string) "database file" "a73ab3e0184eddc29a6702135644035e" file;
  Alcotest.(check string) "query results" "a60b61b73897618bae0bf65a91feee3b" results;
  Alcotest.(check int) "pager work" 104831 work;
  Alcotest.(check int) "page accesses" 105313 accesses

let qc = QCheck_alcotest.to_alcotest

let suite =
  [ ("value", [
      Alcotest.test_case "ordering" `Quick test_value_compare;
      Alcotest.test_case "arithmetic" `Quick test_value_arith;
      Alcotest.test_case "like" `Quick test_value_like;
      Alcotest.test_case "REAL text" `Quick test_real_text;
      qc prop_record_roundtrip;
      qc prop_compare_encoded;
      qc prop_compare_corrupt;
      Alcotest.test_case "compare_encoded allocates nothing" `Quick test_compare_no_alloc;
    ]);
    ("pager", [
      Alcotest.test_case "commit" `Quick test_pager_txn_commit;
      Alcotest.test_case "rollback" `Quick test_pager_rollback;
      Alcotest.test_case "crash recovery" `Quick test_pager_crash_recovery;
      Alcotest.test_case "freelist reuse" `Quick test_pager_freelist_reuse;
      Alcotest.test_case "small cache vacuum" `Quick test_pager_small_cache_vacuum;
      Alcotest.test_case "journal entry checksum" `Quick test_pager_entry_cksum;
    ]);
    ("btree", [
      Alcotest.test_case "insert/lookup" `Quick test_btree_insert_lookup;
      Alcotest.test_case "random order" `Quick test_btree_random_order_inserts;
      Alcotest.test_case "range iteration" `Quick test_btree_range_iteration;
      Alcotest.test_case "replace/delete" `Quick test_btree_replace_and_delete;
      Alcotest.test_case "large payloads" `Quick test_btree_large_payloads;
      Alcotest.test_case "index ops" `Quick test_btree_index_ops;
      Alcotest.test_case "index seek allocation" `Quick test_index_seek_allocation;
      Alcotest.test_case "three-way splits" `Quick test_btree_three_way_splits;
      Alcotest.test_case "split: mixed index keys" `Quick test_split_mixed_index_keys;
      Alcotest.test_case "split: mixed table rows" `Quick test_split_mixed_table_rows;
      Alcotest.test_case "golden page images" `Quick test_golden_page_images;
    ]);
    ("token", [
      Alcotest.test_case "keywords in any case" `Quick test_keywords;
    ]);
    ("sql", [
      Alcotest.test_case "create/insert/select" `Quick test_create_insert_select;
      Alcotest.test_case "where + expressions" `Quick test_where_and_expressions;
      Alcotest.test_case "like + functions" `Quick test_like_and_functions;
      Alcotest.test_case "aggregates + group by" `Quick test_aggregates_group_by;
      Alcotest.test_case "SELECT without FROM" `Quick test_select_without_from;
      Alcotest.test_case "GROUP BY positions" `Quick test_group_by_positions;
      Alcotest.test_case "HAVING" `Quick test_having;
      Alcotest.test_case "GROUP BY work per row" `Quick test_group_by_work;
      Alcotest.test_case "order/limit/distinct" `Quick test_order_limit_distinct;
      Alcotest.test_case "update/delete" `Quick test_update_delete;
      Alcotest.test_case "rowid plan + pk" `Quick test_rowid_plan_and_pk;
      Alcotest.test_case "rowid range below the least rowid" `Quick test_rowid_range_least_rowid;
      Alcotest.test_case "catalog pages grow linearly" `Quick test_catalog_pages_linear;
      Alcotest.test_case "secondary index" `Quick test_secondary_index;
      Alcotest.test_case "unique index" `Quick test_unique_index;
      Alcotest.test_case "integer against real past 2^53" `Quick test_int_real_compare;
      Alcotest.test_case "names bound once" `Quick test_names_bound_once;
      Alcotest.test_case "join" `Quick test_join;
      Alcotest.test_case "AS table aliases" `Quick test_as_table_alias;
      Alcotest.test_case "transactions" `Quick test_transactions;
      Alcotest.test_case "persistence" `Quick test_persistence;
      Alcotest.test_case "drop + vacuum" `Quick test_drop_and_vacuum;
      Alcotest.test_case "analyze" `Quick test_analyze;
      Alcotest.test_case "pragma" `Quick test_pragma_cache_size;
      Alcotest.test_case "not null + default" `Quick test_not_null_and_default;
      Alcotest.test_case "DEFAULT after ROLLBACK" `Quick test_default_after_rollback;
      Alcotest.test_case "DEFAULT after reopening" `Quick test_default_after_reopen;
      Alcotest.test_case "catalog names holding ; and :" `Quick test_catalog_names;
      Alcotest.test_case "parameter errors" `Quick test_parameter_errors;
      Alcotest.test_case "errors" `Quick test_sql_errors;
      Alcotest.test_case "random()" `Quick test_random_functions;
      Alcotest.test_case "multi-statement" `Quick test_multi_statement_exec;
      Alcotest.test_case "point SELECT allocation" `Quick test_point_select_allocation;
    ]);
    ("explain", [
      Alcotest.test_case "roundtrip every kind" `Quick test_explain_roundtrip;
      Alcotest.test_case "plan rendering" `Quick test_explain_output;
      Alcotest.test_case "operator conservation" `Quick test_operator_conservation;
      Alcotest.test_case "plan counters" `Quick test_plan_counters;
      Alcotest.test_case "analyze stat tables" `Quick test_analyze_stat_tables;
    ]);
    ("sqlstat", [
      Alcotest.test_case "fingerprint" `Quick test_fingerprint;
      Alcotest.test_case "registry + merge" `Quick test_sqlstat_registry;
      Alcotest.test_case "slice_ns" `Quick test_slice_ns;
    ]);
  ]

let () = Alcotest.run "twine_sqldb" suite
