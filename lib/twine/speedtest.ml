(* A reimplementation of SQLite's Speedtest1 scenarios (§V-C, Fig 4):
   29 numbered tests matching the paper's experiment ids, each a
   self-contained SQL workload run against a Bench_db context. The [size]
   parameter scales every test's row counts (Speedtest1's --size). *)

type test = { id : int; label : string; run : Bench_db.t -> size:int -> unit }

let e ctx sql = ignore (Bench_db.exec ctx sql)
let q ctx sql = ignore (Bench_db.query ctx sql)

let batch ctx ~n f =
  e ctx "BEGIN";
  for i = 1 to n do
    f i
  done;
  e ctx "COMMIT"

(* number text of i, like speedtest1's swizzled text columns *)
let words = [| "zero"; "one"; "two"; "three"; "four"; "five"; "six"; "seven"; "eight"; "nine" |]

let spelled i =
  let rec go i acc =
    if i = 0 then acc else go (i / 10) (words.(i mod 10) ^ " " ^ acc)
  in
  if i = 0 then "zero" else String.trim (go i "")

let tests : test list =
  [
    { id = 100; label = "INSERTs into unindexed table";
      run = (fun ctx ~size ->
        e ctx "CREATE TABLE z1(a INTEGER, b INTEGER, c TEXT)";
        batch ctx ~n:size (fun i ->
            e ctx (Printf.sprintf "INSERT INTO z1 VALUES (%d, %d, '%s')" i (i * 2) (spelled i)))) };
    { id = 110; label = "INSERTs into table with INTEGER PRIMARY KEY";
      run = (fun ctx ~size ->
        e ctx "CREATE TABLE z2(a INTEGER PRIMARY KEY, b INTEGER, c TEXT)";
        batch ctx ~n:size (fun i ->
            e ctx (Printf.sprintf "INSERT INTO z2 VALUES (%d, %d, '%s')" i (i * 3) (spelled i)))) };
    { id = 120; label = "INSERTs into indexed table";
      run = (fun ctx ~size ->
        e ctx "CREATE TABLE z3(a INTEGER PRIMARY KEY, b INTEGER, c TEXT)";
        e ctx "CREATE INDEX z3b ON z3(b)";
        batch ctx ~n:size (fun i ->
            e ctx (Printf.sprintf "INSERT INTO z3 VALUES (%d, %d, '%s')" i (i mod 97) (spelled i)))) };
    { id = 130; label = "unindexed range scans with aggregate";
      run = (fun ctx ~size ->
        for k = 1 to 10 do
          q ctx (Printf.sprintf
                   "SELECT count(*), avg(b) FROM z1 WHERE b > %d AND b < %d"
                   (k * size / 10) ((k + 2) * size / 10))
        done) };
    { id = 140; label = "LIKE scans over text";
      run = (fun ctx ~size ->
        ignore size;
        List.iter (fun pat ->
            q ctx (Printf.sprintf "SELECT count(*) FROM z1 WHERE c LIKE '%%%s%%'" pat))
          [ "one"; "two"; "three"; "nine" ]) };
    { id = 142; label = "ORDER BY on unindexed column";
      run = (fun ctx ~size ->
        q ctx (Printf.sprintf "SELECT a, b FROM z1 ORDER BY b LIMIT %d" (size / 4))) };
    { id = 145; label = "ORDER BY with LIMIT and expression";
      run = (fun ctx ~size ->
        q ctx (Printf.sprintf "SELECT a FROM z1 ORDER BY b DESC LIMIT %d" (size / 10))) };
    { id = 150; label = "CREATE INDEX on populated table";
      run = (fun ctx ~size ->
        ignore size;
        e ctx "CREATE INDEX z1b ON z1(b)";
        e ctx "CREATE INDEX z1c ON z1(c)") };
    { id = 160; label = "point SELECTs via PRIMARY KEY";
      run = (fun ctx ~size ->
        for k = 1 to min size 400 do
          q ctx (Printf.sprintf "SELECT b, c FROM z2 WHERE a = %d" ((k * 7 mod size) + 1))
        done) };
    { id = 161; label = "point SELECTs via rowid";
      run = (fun ctx ~size ->
        for k = 1 to min size 400 do
          q ctx (Printf.sprintf "SELECT b FROM z2 WHERE rowid = %d" ((k * 13 mod size) + 1))
        done) };
    { id = 170; label = "point SELECTs via secondary index";
      run = (fun ctx ~size ->
        ignore size;
        for k = 0 to 96 do
          q ctx (Printf.sprintf "SELECT count(*) FROM z3 WHERE b = %d" k)
        done) };
    { id = 180; label = "range UPDATE on unindexed table";
      run = (fun ctx ~size ->
        e ctx (Printf.sprintf "UPDATE z1 SET b = b + 1 WHERE a <= %d" (size / 2))) };
    { id = 190; label = "UPDATE on indexed column";
      run = (fun ctx ~size ->
        e ctx (Printf.sprintf "UPDATE z3 SET b = b + 100 WHERE a <= %d" (size / 2))) };
    { id = 210; label = "schema change: rebuild table";
      run = (fun ctx ~size ->
        ignore size;
        e ctx "CREATE TABLE z1new(a INTEGER, b INTEGER, c TEXT, d INTEGER DEFAULT 7)";
        e ctx "BEGIN";
        let rows = Bench_db.query ctx "SELECT a, b, c FROM z1" in
        List.iter
          (fun row ->
            match row with
            | [ a; b; c ] ->
                e ctx (Printf.sprintf "INSERT INTO z1new(a,b,c) VALUES (%s, %s, '%s')"
                         (Twine_sqldb.Value.to_string a) (Twine_sqldb.Value.to_string b)
                         (String.concat "''" (String.split_on_char '\'' (Twine_sqldb.Value.to_string c))))
            | _ -> ())
          rows;
        e ctx "COMMIT";
        e ctx "DROP TABLE z1";
        e ctx "BEGIN";
        let rows = Bench_db.query ctx "SELECT a, b, c FROM z1new" in
        e ctx "CREATE TABLE z1(a INTEGER, b INTEGER, c TEXT)";
        List.iter
          (fun row ->
            match row with
            | [ a; b; c ] ->
                e ctx (Printf.sprintf "INSERT INTO z1 VALUES (%s, %s, '%s')"
                         (Twine_sqldb.Value.to_string a) (Twine_sqldb.Value.to_string b)
                         (String.concat "''" (String.split_on_char '\'' (Twine_sqldb.Value.to_string c))))
            | _ -> ())
          rows;
        e ctx "COMMIT";
        e ctx "DROP TABLE z1new";
        e ctx "CREATE INDEX z1b ON z1(b)") };
    { id = 230; label = "UPDATE via PRIMARY KEY";
      run = (fun ctx ~size ->
        batch ctx ~n:(min size 300) (fun k ->
            e ctx (Printf.sprintf "UPDATE z2 SET b = b * 2 WHERE a = %d" ((k * 3 mod size) + 1)))) };
    { id = 240; label = "UPDATE of all rows";
      run = (fun ctx ~size ->
        ignore size;
        e ctx "UPDATE z2 SET b = b + 1") };
    { id = 250; label = "UPDATE of every text value";
      run = (fun ctx ~size ->
        ignore size;
        e ctx "UPDATE z1 SET c = c || '!'") };
    { id = 260; label = "wide-range SELECT computing a sum";
      run = (fun ctx ~size ->
        ignore size;
        for _ = 1 to 5 do
          q ctx "SELECT sum(b) FROM z1 WHERE a IS NOT NULL"
        done) };
    { id = 270; label = "range UPDATE with arithmetic";
      run = (fun ctx ~size ->
        e ctx (Printf.sprintf "UPDATE z2 SET b = b * 2 - 1 WHERE a > %d" (size / 3))) };
    { id = 280; label = "range DELETE";
      run = (fun ctx ~size ->
        e ctx (Printf.sprintf "DELETE FROM z3 WHERE a > %d" (3 * size / 4))) };
    { id = 290; label = "re-INSERT after DELETE";
      run = (fun ctx ~size ->
        batch ctx ~n:(size / 4) (fun k ->
            let i = (3 * size / 4) + k in
            e ctx (Printf.sprintf "INSERT INTO z3 VALUES (%d, %d, '%s')" i (i mod 97) (spelled i)))) };
    { id = 300; label = "joined SELECT over two tables";
      run = (fun ctx ~size ->
        ignore size;
        q ctx "SELECT count(*) FROM z2 JOIN z3 ON z2.a = z3.a WHERE z3.b < 50") };
    { id = 400; label = "random point SELECTs (cache-friendly)";
      run = (fun ctx ~size ->
        let drbg = Twine_crypto.Drbg.create ~seed:"st400" () in
        for _ = 1 to min 500 size do
          q ctx (Printf.sprintf "SELECT b FROM z2 WHERE a = %d"
                   (1 + Twine_crypto.Drbg.int_below drbg size))
        done) };
    { id = 410; label = "random range SELECTs overflowing the page cache";
      run = (fun ctx ~size ->
        let drbg = Twine_crypto.Drbg.create ~seed:"st410" () in
        for _ = 1 to min 150 size do
          let lo = 1 + Twine_crypto.Drbg.int_below drbg size in
          q ctx (Printf.sprintf "SELECT sum(b) FROM z2 WHERE a BETWEEN %d AND %d" lo (lo + 50))
        done) };
    { id = 500; label = "random UPDATEs";
      run = (fun ctx ~size ->
        let drbg = Twine_crypto.Drbg.create ~seed:"st500" () in
        batch ctx ~n:(min 300 size) (fun _ ->
            e ctx (Printf.sprintf "UPDATE z2 SET b = b + 7 WHERE a = %d"
                     (1 + Twine_crypto.Drbg.int_below drbg size)))) };
    { id = 510; label = "random point reads across the whole file";
      run = (fun ctx ~size ->
        let drbg = Twine_crypto.Drbg.create ~seed:"st510" () in
        for _ = 1 to min 500 size do
          q ctx (Printf.sprintf "SELECT c FROM z3 WHERE a = %d"
                   (1 + Twine_crypto.Drbg.int_below drbg (3 * size / 4)))
        done) };
    { id = 520; label = "SELECT DISTINCT";
      run = (fun ctx ~size ->
        ignore size;
        q ctx "SELECT DISTINCT b FROM z3";
        q ctx "SELECT DISTINCT c FROM z1 LIMIT 100") };
    { id = 980; label = "VACUUM";
      run = (fun ctx ~size ->
        ignore size;
        e ctx "VACUUM") };
    { id = 990; label = "ANALYZE (query planner statistics)";
      run = (fun ctx ~size ->
        ignore size;
        e ctx "ANALYZE") };
  ]

let test_ids = List.map (fun t -> t.id) tests

(* Run the full suite against a fresh context; returns per-test virtual
   times in ns. *)
let run_suite ?machine ?cache_pages ?ipfs_variant ~wasm_factor variant storage
    ~size () =
  let ctx =
    Bench_db.create ?machine ?cache_pages ?ipfs_variant ~wasm_factor variant storage
  in
  let results =
    List.map
      (fun t ->
        let t0 = Bench_db.now_ns ctx in
        t.run ctx ~size;
        (t.id, Bench_db.now_ns ctx - t0))
      tests
  in
  Bench_db.close ctx;
  results
