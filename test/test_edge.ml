(* Edge-case tests across the stack: SQL corner semantics, WASI fd-table
   corners, Wasm memory growth under AoT, strict-mode TWINE, and the
   OS-directory backing path. *)

open Twine_sqldb

let v_int n = Value.Int (Int64.of_int n)
let v_text s = Value.Text s
let value_t = Alcotest.testable (Fmt.of_to_string Value.to_string) Value.equal
let rows_t = Alcotest.(list (list value_t))

let mem_db () = Db.open_db ":memory:"

(* --- SQL corner semantics --- *)

let test_aggregates_on_empty_table () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(x INTEGER)");
  Alcotest.check rows_t "count empty" [ [ v_int 0 ] ] (Db.query db "SELECT count(*) FROM t");
  Alcotest.check rows_t "sum empty is NULL" [ [ Value.Null ] ]
    (Db.query db "SELECT sum(x) FROM t");
  Alcotest.check rows_t "avg empty is NULL" [ [ Value.Null ] ]
    (Db.query db "SELECT avg(x) FROM t");
  Alcotest.check rows_t "min empty is NULL" [ [ Value.Null ] ]
    (Db.query db "SELECT min(x) FROM t");
  (* GROUP BY over empty input yields no rows at all *)
  Alcotest.check rows_t "group by empty" []
    (Db.query db "SELECT x, count(*) FROM t GROUP BY x");
  Db.close db

let test_null_semantics () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(x INTEGER)");
  ignore (Db.exec db "INSERT INTO t VALUES (1), (NULL), (2), (NULL)");
  (* NULL never matches =, <>, or IN *)
  Alcotest.check rows_t "= NULL matches nothing" [ [ v_int 0 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE x = NULL");
  Alcotest.check rows_t "<> excludes NULLs" [ [ v_int 1 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE x <> 1");
  Alcotest.check rows_t "IN ignores NULL rows" [ [ v_int 1 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE x IN (1, NULL)");
  (* count of a column skips NULL, count-star does not *)
  Alcotest.check rows_t "count(x) vs count(*)" [ [ v_int 2; v_int 4 ] ]
    (Db.query db "SELECT count(x), count(*) FROM t");
  (* NULLs sort first (SQLite storage-class order) *)
  Alcotest.check rows_t "nulls first asc"
    [ [ Value.Null ]; [ Value.Null ]; [ v_int 1 ]; [ v_int 2 ] ]
    (Db.query db "SELECT x FROM t ORDER BY x");
  Db.close db

let test_case_cast_literals () =
  let db = mem_db () in
  Alcotest.check rows_t "case without match, no else" [ [ Value.Null ] ]
    (Db.query db "SELECT CASE WHEN 1 = 2 THEN 'x' END");
  Alcotest.check rows_t "cast text to integer" [ [ v_int 42 ] ]
    (Db.query db "SELECT CAST('42' AS INTEGER)");
  Alcotest.check rows_t "cast real to integer truncates" [ [ v_int 3 ] ]
    (Db.query db "SELECT CAST(3.9 AS INTEGER)");
  Alcotest.check rows_t "blob literal" [ [ v_int 3 ] ]
    (Db.query db "SELECT length(x'aabbcc')");
  Alcotest.check rows_t "hex of blob" [ [ v_text "AABBCC" ] ]
    (Db.query db "SELECT upper(hex(x'aabbcc'))");
  Alcotest.check rows_t "string '' escape" [ [ v_text "it's" ] ]
    (Db.query db "SELECT 'it''s'");
  Alcotest.check rows_t "unary minus precedence" [ [ v_int (-7) ] ]
    (Db.query db "SELECT -3 - 4");
  Alcotest.check rows_t "integer division" [ [ v_int 2 ] ] (Db.query db "SELECT 7 / 3");
  Alcotest.check rows_t "modulo" [ [ v_int 1 ] ] (Db.query db "SELECT 7 % 3");
  Db.close db

let test_sql_comments_and_quoting () =
  let db = mem_db () in
  ignore
    (Db.exec db
       "CREATE TABLE \"select table\"(x INTEGER) -- weird name\n/* block\ncomment */");
  ignore (Db.exec db "INSERT INTO \"select table\" VALUES (5)");
  Alcotest.check rows_t "quoted identifier" [ [ v_int 5 ] ]
    (Db.query db "SELECT x FROM \"select table\"");
  Db.close db

let test_between_and_text_comparison () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(s TEXT)");
  ignore (Db.exec db "INSERT INTO t VALUES ('apple'),('banana'),('cherry')");
  Alcotest.check rows_t "text between" [ [ v_text "banana" ] ]
    (Db.query db "SELECT s FROM t WHERE s BETWEEN 'b' AND 'c'");
  (* cross-class comparison: INTEGER < TEXT always *)
  ignore (Db.exec db "INSERT INTO t VALUES (42)");
  Alcotest.check rows_t "int sorts before text" [ [ v_int 42 ] ]
    (Db.query db "SELECT s FROM t ORDER BY s LIMIT 1");
  Db.close db

let test_update_pk_column_and_where_rowid_expr () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(id INTEGER PRIMARY KEY, v INTEGER)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  (* rowid plan with arithmetic on the constant side *)
  Alcotest.check rows_t "rowid = 1+1" [ [ v_int 20 ] ]
    (Db.query db "SELECT v FROM t WHERE id = 1 + 1");
  (* non-constant comparisons fall back to a scan and still work *)
  Alcotest.check rows_t "id = v/10" [ [ v_int 1 ]; [ v_int 2 ]; [ v_int 3 ] ]
    (Db.query db "SELECT id FROM t WHERE id = v / 10 ORDER BY id");
  Db.close db

let test_multi_column_index_prefix () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(a INTEGER, b INTEGER, c INTEGER)");
  ignore (Db.exec db "CREATE INDEX t_ab ON t(a, b)");
  ignore (Db.exec db "BEGIN");
  for i = 0 to 199 do
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)" (i mod 10) (i mod 7) i))
  done;
  ignore (Db.exec db "COMMIT");
  (* equality on the index prefix column *)
  Alcotest.check rows_t "prefix equality" [ [ v_int 20 ] ]
    (Db.query db "SELECT count(*) FROM t WHERE a = 3");
  (* must agree with a forced scan *)
  Alcotest.(check bool) "same as scan" true
    (Db.query db "SELECT count(*) FROM t WHERE a = 3"
    = Db.query db "SELECT count(*) FROM t WHERE a + 0 = 3");
  Db.close db

let test_vacuum_preserves_indexes () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(id INTEGER PRIMARY KEY, v TEXT)");
  ignore (Db.exec db "CREATE INDEX t_v ON t(v)");
  ignore (Db.exec db "BEGIN");
  for i = 1 to 300 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'w%d')" i (i mod 20)))
  done;
  ignore (Db.exec db "COMMIT");
  ignore (Db.exec db "DELETE FROM t WHERE id % 2 = 0");
  let before = Db.query db "SELECT count(*) FROM t WHERE v = 'w5'" in
  ignore (Db.exec db "VACUUM");
  Alcotest.check rows_t "index answers unchanged after vacuum" before
    (Db.query db "SELECT count(*) FROM t WHERE v = 'w5'");
  Alcotest.check rows_t "row count after vacuum" [ [ v_int 150 ] ]
    (Db.query db "SELECT count(*) FROM t");
  Db.close db

let test_last_insert_rowid_and_auto_pk () =
  let db = mem_db () in
  ignore (Db.exec db "CREATE TABLE t(id INTEGER PRIMARY KEY, v TEXT)");
  ignore (Db.exec db "INSERT INTO t(v) VALUES ('a')");
  Alcotest.(check int64) "first rowid" 1L (Db.last_insert_rowid db);
  ignore (Db.exec db "INSERT INTO t VALUES (10, 'b')");
  ignore (Db.exec db "INSERT INTO t(v) VALUES ('c')");
  Alcotest.(check int64) "continues after explicit pk" 11L (Db.last_insert_rowid db);
  ignore (Db.exec db "DELETE FROM t WHERE id = 11");
  ignore (Db.exec db "INSERT INTO t(v) VALUES ('d')");
  (* max-rowid + 1 semantics (not AUTOINCREMENT persistence) *)
  Alcotest.(check int64) "reuses max+1" 11L (Db.last_insert_rowid db);
  Db.close db

(* --- WASI corners --- *)

open Twine_wasm
open Twine_wasm.Values
open Twine_wasi

let wasi_setup ?preopens () =
  let ctx = Api.create ?preopens () in
  let inst =
    Interp.instantiate ~imports:(Api.imports ctx)
      (Wat.parse {|(module (memory (export "memory") 2))|})
  in
  Api.bind_memory ctx inst;
  let fns = Api.functions ctx in
  let call name vargs =
    match List.assoc_opt name fns with
    | Some f -> (
        match Interp.call_func f vargs with
        | [ I32 e ] -> Int32.to_int e
        | _ -> -1)
    | None -> -1
  in
  (Api.memory ctx, call)

let i v = I32 (Int32.of_int v)
let l v = I64 (Int64.of_int v)

let wasi_open m call name =
  Memory.store_bytes m 2000 name;
  let e =
    call "path_open"
      [ i 3; i 0; i 2000; i (String.length name); i 1; I64 0x1fffffffL; I64 0L; i 0;
        i 2100 ]
  in
  Alcotest.(check int) ("open " ^ name) 0 e;
  Int32.to_int (Memory.load32 m 2100)

let test_wasi_fd_allocate_and_seek_past_eof () =
  let m, call = wasi_setup ~preopens:[ (".", Vfs.memory ()) ] () in
  let fd = wasi_open m call "sparse.bin" in
  Alcotest.(check int) "allocate" 0 (call "fd_allocate" [ i fd; l 100; l 24 ]);
  Alcotest.(check int) "filestat" 0 (call "fd_filestat_get" [ i fd; i 400 ]);
  Alcotest.(check int) "size grew" 124 (Int64.to_int (Memory.load64 m 432));
  (* seek far past EOF then write — POSIX sparse semantics *)
  Alcotest.(check int) "seek" 0 (call "fd_seek" [ i fd; l 5000; i 0; i 88 ]);
  Memory.store_bytes m 1000 "tail";
  Memory.store32 m 64 1000l;
  Memory.store32 m 68 4l;
  Alcotest.(check int) "write at 5000" 0 (call "fd_write" [ i fd; i 64; i 1; i 80 ]);
  Alcotest.(check int) "filestat2" 0 (call "fd_filestat_get" [ i fd; i 400 ]);
  Alcotest.(check int) "size 5004" 5004 (Int64.to_int (Memory.load64 m 432))

let test_wasi_exclusive_create () =
  let m, call = wasi_setup ~preopens:[ (".", Vfs.memory ()) ] () in
  let fd = wasi_open m call "once" in
  Alcotest.(check int) "close" 0 (call "fd_close" [ i fd ]);
  Memory.store_bytes m 2000 "once";
  (* O_CREAT|O_EXCL on existing file *)
  Alcotest.(check int) "excl fails" Errno.eexist
    (call "path_open"
       [ i 3; i 0; i 2000; i 4; i 5; I64 0x1fffffffL; I64 0L; i 0; i 2100 ])

let test_wasi_trunc_flag () =
  let m, call = wasi_setup ~preopens:[ (".", Vfs.memory ()) ] () in
  let fd = wasi_open m call "t.txt" in
  Memory.store_bytes m 1000 "0123456789";
  Memory.store32 m 64 1000l;
  Memory.store32 m 68 10l;
  Alcotest.(check int) "write" 0 (call "fd_write" [ i fd; i 64; i 1; i 80 ]);
  Alcotest.(check int) "close" 0 (call "fd_close" [ i fd ]);
  (* reopen with TRUNC (8) *)
  Memory.store_bytes m 2000 "t.txt";
  Alcotest.(check int) "reopen trunc" 0
    (call "path_open" [ i 3; i 0; i 2000; i 5; i 9; I64 0x1fffffffL; I64 0L; i 0; i 2100 ]);
  let fd2 = Int32.to_int (Memory.load32 m 2100) in
  Alcotest.(check int) "filestat" 0 (call "fd_filestat_get" [ i fd2; i 400 ]);
  Alcotest.(check int) "truncated to zero" 0 (Int64.to_int (Memory.load64 m 432))

let test_wasi_append_flag () =
  let m, call = wasi_setup ~preopens:[ (".", Vfs.memory ()) ] () in
  let fd = wasi_open m call "log" in
  Memory.store_bytes m 1000 "first.";
  Memory.store32 m 64 1000l;
  Memory.store32 m 68 6l;
  ignore (call "fd_write" [ i fd; i 64; i 1; i 80 ]);
  ignore (call "fd_close" [ i fd ]);
  (* reopen with APPEND fdflag (1) *)
  Memory.store_bytes m 2000 "log";
  ignore
    (call "path_open" [ i 3; i 0; i 2000; i 3; i 0; I64 0x1fffffffL; I64 0L; i 1; i 2100 ]);
  let fd2 = Int32.to_int (Memory.load32 m 2100) in
  Memory.store_bytes m 1010 "second";
  Memory.store32 m 64 1010l;
  Memory.store32 m 68 6l;
  ignore (call "fd_write" [ i fd2; i 64; i 1; i 80 ]);
  ignore (call "fd_seek" [ i fd2; l 0; i 0; i 88 ]);
  Memory.store32 m 64 3000l;
  Memory.store32 m 68 20l;
  ignore (call "fd_read" [ i fd2; i 64; i 1; i 80 ]);
  Alcotest.(check string) "appended" "first.second" (Memory.load_bytes m 3000 12)

(* --- Wasm memory growth under AoT --- *)

let test_memory_grow_visible_to_aot () =
  let src =
    {|(module
        (memory (export "memory") 1 4)
        (func (export "probe") (param $addr i32) (result i32)
          (i32.load (local.get $addr)))
        (func (export "grow") (result i32) (memory.grow (i32.const 1)))
        (func (export "poke") (param $addr i32) (param $v i32)
          (i32.store (local.get $addr) (local.get $v))))|}
  in
  let m = Wat.parse src in
  let inst = Interp.instantiate m in
  ignore (Aot.compile_instance inst);
  (* address 70000 is out of bounds before growth *)
  Alcotest.(check bool) "oob before grow" true
    (try
       ignore (Interp.invoke inst "probe" [ I32 70_000l ]);
       false
     with Trap _ -> true);
  Alcotest.(check (list bool)) "grow returns old size" [ true ]
    (match Interp.invoke inst "grow" [] with [ I32 1l ] -> [ true ] | _ -> [ false ]);
  ignore (Interp.invoke inst "poke" [ I32 70_000l; I32 77l ]);
  Alcotest.(check bool) "aot code sees grown memory" true
    (Interp.invoke inst "probe" [ I32 70_000l ] = [ I32 77l ])

let test_deep_recursion () =
  let src =
    {|(module
        (func $down (export "down") (param i32) (result i32)
          (if (result i32) (i32.eqz (local.get 0))
            (then (i32.const 0))
            (else (i32.add (i32.const 1)
                           (call $down (i32.sub (local.get 0) (i32.const 1))))))))|}
  in
  let inst = Interp.instantiate (Wat.parse src) in
  Alcotest.(check (list bool)) "10k frames" [ true ]
    (match Interp.invoke inst "down" [ I32 10_000l ] with
    | [ I32 10_000l ] -> [ true ]
    | _ -> [ false ])

(* --- TWINE strict mode and OS-backed storage --- *)

let test_strict_mode_blocks_untrusted_calls () =
  let machine = Twine_sgx.Machine.create ~seed:"strict" () in
  let config = { Twine.Runtime.default_config with strict_wasi = true } in
  let rt = Twine.Runtime.create ~config machine in
  (* clock_time_get needs the untrusted POSIX layer; random_get does not *)
  let clock_app =
    {|(module
        (import "wasi_snapshot_preview1" "clock_time_get"
          (func $c (param i32 i64 i32) (result i32)))
        (memory (export "memory") 1)
        (func (export "_start")
          (drop (call $c (i32.const 1) (i64.const 0) (i32.const 64)))))|}
  in
  Twine.Runtime.deploy rt (Wat.parse clock_app);
  Alcotest.(check bool) "untrusted call rejected in strict mode" true
    (try
       ignore (Twine.Runtime.run rt);
       false
     with Invalid_argument _ -> true);
  let random_app =
    {|(module
        (import "wasi_snapshot_preview1" "random_get"
          (func $r (param i32 i32) (result i32)))
        (memory (export "memory") 1)
        (func (export "_start")
          (drop (call $r (i32.const 64) (i32.const 8)))))|}
  in
  let rt2 = Twine.Runtime.create ~config machine in
  Twine.Runtime.deploy rt2 (Wat.parse random_app);
  let r = Twine.Runtime.run rt2 in
  Alcotest.(check int) "trusted impls still work" 0 r.Twine.Runtime.exit_code

let test_directory_backing_roundtrip () =
  let dir = Filename.temp_file "twine" "" in
  Sys.remove dir;
  let backing = Twine_sim.Backing.directory dir in
  let machine = Twine_sgx.Machine.create ~seed:"dirb" () in
  let e = Twine_sgx.Enclave.create machine ~code:"d" () in
  let fs = Twine_ipfs.Protected_fs.create e backing () in
  let f = Twine_ipfs.Protected_fs.open_file fs ~mode:`Trunc "real.dat" in
  ignore (Twine_ipfs.Protected_fs.write f (String.make 9000 'R'));
  Twine_ipfs.Protected_fs.close f;
  (* real ciphertext files exist on the host file system *)
  Alcotest.(check bool) "files on disk" true (Array.length (Sys.readdir dir) >= 2);
  let f2 = Twine_ipfs.Protected_fs.open_file fs ~mode:`Rdonly "real.dat" in
  let buf = Bytes.create 9000 in
  let rec drain off =
    if off < 9000 then begin
      let n = Twine_ipfs.Protected_fs.read f2 buf ~off ~len:(9000 - off) in
      if n > 0 then drain (off + n)
    end
  in
  drain 0;
  Twine_ipfs.Protected_fs.close f2;
  Alcotest.(check bool) "roundtrip through real files" true
    (Bytes.to_string buf = String.make 9000 'R');
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let suite =
  [ ("sql-corners", [
      Alcotest.test_case "aggregates on empty" `Quick test_aggregates_on_empty_table;
      Alcotest.test_case "null semantics" `Quick test_null_semantics;
      Alcotest.test_case "case/cast/literals" `Quick test_case_cast_literals;
      Alcotest.test_case "comments + quoting" `Quick test_sql_comments_and_quoting;
      Alcotest.test_case "between + text order" `Quick test_between_and_text_comparison;
      Alcotest.test_case "rowid plans" `Quick test_update_pk_column_and_where_rowid_expr;
      Alcotest.test_case "multi-column index" `Quick test_multi_column_index_prefix;
      Alcotest.test_case "vacuum + indexes" `Quick test_vacuum_preserves_indexes;
      Alcotest.test_case "last_insert_rowid" `Quick test_last_insert_rowid_and_auto_pk;
    ]);
    ("wasi-corners", [
      Alcotest.test_case "allocate + sparse write" `Quick test_wasi_fd_allocate_and_seek_past_eof;
      Alcotest.test_case "exclusive create" `Quick test_wasi_exclusive_create;
      Alcotest.test_case "trunc flag" `Quick test_wasi_trunc_flag;
      Alcotest.test_case "append flag" `Quick test_wasi_append_flag;
    ]);
    ("wasm-corners", [
      Alcotest.test_case "memory.grow under aot" `Quick test_memory_grow_visible_to_aot;
      Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
    ]);
    ("twine-corners", [
      Alcotest.test_case "strict wasi mode" `Quick test_strict_mode_blocks_untrusted_calls;
      Alcotest.test_case "directory backing" `Quick test_directory_backing_roundtrip;
    ]);
  ]

let () = Alcotest.run "twine_edge" suite
