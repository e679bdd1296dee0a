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
  Alcotest.(check bool) "int = real" true (Value.equal (v_int 2) (Value.Real 2.0))

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

let test_random_functions () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(r INTEGER, b BLOB)");
  ignore (Db.exec db "INSERT INTO t VALUES (random(), randomblob(16))");
  (match Db.query db "SELECT length(b) FROM t" with
  | [ [ v ] ] -> Alcotest.check value_t "blob length" (v_int 16) v
  | _ -> Alcotest.fail "no rows");
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
    (fp "SELECT v FROM kv WHERE k = 42")

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

let qc = QCheck_alcotest.to_alcotest

let suite =
  [ ("value", [
      Alcotest.test_case "ordering" `Quick test_value_compare;
      Alcotest.test_case "arithmetic" `Quick test_value_arith;
      Alcotest.test_case "like" `Quick test_value_like;
      qc prop_record_roundtrip;
    ]);
    ("pager", [
      Alcotest.test_case "commit" `Quick test_pager_txn_commit;
      Alcotest.test_case "rollback" `Quick test_pager_rollback;
      Alcotest.test_case "crash recovery" `Quick test_pager_crash_recovery;
      Alcotest.test_case "freelist reuse" `Quick test_pager_freelist_reuse;
    ]);
    ("btree", [
      Alcotest.test_case "insert/lookup" `Quick test_btree_insert_lookup;
      Alcotest.test_case "random order" `Quick test_btree_random_order_inserts;
      Alcotest.test_case "range iteration" `Quick test_btree_range_iteration;
      Alcotest.test_case "replace/delete" `Quick test_btree_replace_and_delete;
      Alcotest.test_case "large payloads" `Quick test_btree_large_payloads;
      Alcotest.test_case "index ops" `Quick test_btree_index_ops;
    ]);
    ("token", [
      Alcotest.test_case "keywords in any case" `Quick test_keywords;
    ]);
    ("sql", [
      Alcotest.test_case "create/insert/select" `Quick test_create_insert_select;
      Alcotest.test_case "where + expressions" `Quick test_where_and_expressions;
      Alcotest.test_case "like + functions" `Quick test_like_and_functions;
      Alcotest.test_case "aggregates + group by" `Quick test_aggregates_group_by;
      Alcotest.test_case "order/limit/distinct" `Quick test_order_limit_distinct;
      Alcotest.test_case "update/delete" `Quick test_update_delete;
      Alcotest.test_case "rowid plan + pk" `Quick test_rowid_plan_and_pk;
      Alcotest.test_case "secondary index" `Quick test_secondary_index;
      Alcotest.test_case "unique index" `Quick test_unique_index;
      Alcotest.test_case "join" `Quick test_join;
      Alcotest.test_case "transactions" `Quick test_transactions;
      Alcotest.test_case "persistence" `Quick test_persistence;
      Alcotest.test_case "drop + vacuum" `Quick test_drop_and_vacuum;
      Alcotest.test_case "analyze" `Quick test_analyze;
      Alcotest.test_case "pragma" `Quick test_pragma_cache_size;
      Alcotest.test_case "not null + default" `Quick test_not_null_and_default;
      Alcotest.test_case "errors" `Quick test_sql_errors;
      Alcotest.test_case "random()" `Quick test_random_functions;
      Alcotest.test_case "multi-statement" `Quick test_multi_statement_exec;
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
