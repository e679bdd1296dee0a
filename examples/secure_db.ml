(* The paper's flagship scenario (§V): a full SQL database whose file
   lives on untrusted storage, transparently encrypted by the Intel
   Protected File System inside the enclave.

     dune exec examples/secure_db.exe

   Everything below the SQL API — pager, rollback journal, B-trees — runs
   against protected files; the untrusted backing store only ever sees
   ciphertext. *)

open Twine
open Twine_sim
open Twine_sgx
open Twine_ipfs
open Twine_sqldb

let () =
  let machine = Machine.create ~seed:"secure-db" () in
  let rt = Runtime.create machine in
  let backing = Backing.memory () in
  let fs =
    Protected_fs.create (Runtime.enclave rt) backing
      ~variant:Protected_fs.Optimized ()
  in

  (* A SQL database stored in protected files. *)
  let db = Db.open_db ~vfs:(Bench_db.pfs_svfs fs) "patients.db" in
  ignore
    (Db.exec db
       {|CREATE TABLE patients(
           id INTEGER PRIMARY KEY,
           name TEXT NOT NULL,
           diagnosis TEXT,
           risk REAL)|});
  ignore (Db.exec db "CREATE INDEX patients_name ON patients(name)");
  ignore
    (Db.exec db
       {|INSERT INTO patients VALUES
           (1, 'alice', 'hypertension', 0.7),
           (2, 'bob', 'diabetes', 0.4),
           (3, 'carol', 'hypertension', 0.9),
           (4, 'dave', 'asthma', 0.2)|});

  let print_rows title rows =
    Printf.printf "%s\n" title;
    List.iter
      (fun row ->
        print_string "  ";
        List.iter (fun v -> Printf.printf "%-14s" (Value.to_string v)) row;
        print_newline ())
      rows
  in
  print_rows "high-risk hypertension patients:"
    (Db.query db
       "SELECT name, risk FROM patients WHERE diagnosis = 'hypertension' AND risk > 0.5 ORDER BY risk DESC");
  print_rows "per-diagnosis averages:"
    (Db.query db
       "SELECT diagnosis, count(*), avg(risk) FROM patients GROUP BY diagnosis ORDER BY diagnosis");

  (* The untrusted host sees only ciphertext. *)
  Db.close db;
  let plaintext_visible =
    List.exists
      (fun key ->
        match Backing.size backing key with
        | None -> false
        | Some n ->
            let raw = Backing.read backing key ~pos:0 ~len:n in
            let rec has i =
              i + 5 <= String.length raw
              && (String.sub raw i 5 = "alice" || has (i + 1))
            in
            has 0)
      (Backing.list backing)
  in
  Printf.printf "untrusted storage files: %d; plaintext visible: %b\n"
    (List.length (Backing.list backing))
    plaintext_visible;

  (* Reopen: the same enclave derives the same file keys and can decrypt. *)
  let db2 = Db.open_db ~vfs:(Bench_db.pfs_svfs fs) "patients.db" in
  print_rows "after reopen (decrypted in-enclave):"
    (Db.query db2 "SELECT name FROM patients ORDER BY id");
  Db.close db2;

  (* A different machine cannot: the file key derives from the CPU's
     fused secret and the enclave measurement. *)
  let other_machine = Machine.create ~seed:"attacker-box" () in
  let other_rt = Runtime.create other_machine in
  let other_fs = Protected_fs.create (Runtime.enclave other_rt) backing () in
  (try
     let db3 = Db.open_db ~vfs:(Bench_db.pfs_svfs other_fs) "patients.db" in
     ignore (Db.query db3 "SELECT name FROM patients");
     print_endline "BUG: attacker machine read the database!"
   with Protected_fs.Integrity_violation _ | Pager.Corrupt _ ->
     print_endline "attacker machine: decryption refused (as intended)")
