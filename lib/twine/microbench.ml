(* The custom micro-benchmark suite of §V-D: sequential insertion,
   sequential reading and random reading of blob records, swept over
   database sizes, for each technology variant and storage mode. These
   generate Fig 5a/5b/5c, Table II, Fig 6 and (with the IPFS variant
   switch) Fig 7. *)


type point = {
  records : int;
  insert_ns : int;  (* time to insert this step's delta *)
  seq_read_ns : int;  (* time to read all records in order *)
  rand_read_ns : int;  (* time to read [rand_reads] random records *)
}

type sweep_result = {
  variant : Bench_db.variant;
  storage : Bench_db.storage;
  blob_bytes : int;
  points : point list;
}

let schema = "CREATE TABLE kv(id INTEGER PRIMARY KEY, data BLOB)"

let insert_batch ctx ~from_id ~count ~blob_bytes =
  ignore (Bench_db.exec ctx "BEGIN");
  for id = from_id to from_id + count - 1 do
    ignore
      (Bench_db.exec ctx
         (Printf.sprintf "INSERT INTO kv VALUES (%d, randomblob(%d))" id blob_bytes))
  done;
  ignore (Bench_db.exec ctx "COMMIT")

let seq_read ctx ~records =
  (* WHERE-ordered full traversal, as in the paper's sequential test *)
  let rows =
    Bench_db.query ctx
      (Printf.sprintf "SELECT id, length(data) FROM kv WHERE id <= %d" records)
  in
  assert (List.length rows = records)

let rand_read ctx ~records ~samples ~seed =
  let drbg = Twine_crypto.Drbg.create ~seed () in
  for _ = 1 to samples do
    let id = 1 + Twine_crypto.Drbg.int_below drbg records in
    match Bench_db.query ctx (Printf.sprintf "SELECT length(data) FROM kv WHERE id = %d" id) with
    | [ [ _ ] ] -> ()
    | _ -> failwith "record missing"
  done

let sweep ?machine ?(blob_bytes = 256) ?(rand_reads = 400) ?cache_pages
    ?ipfs_variant ~wasm_factor variant storage ~sizes () =
  let ctx =
    Bench_db.create ?machine ?cache_pages ?ipfs_variant ~wasm_factor variant storage
  in
  ignore (Bench_db.exec ctx schema);
  let points = ref [] in
  let have = ref 0 in
  List.iter
    (fun size ->
      let t0 = Bench_db.now_ns ctx in
      if size > !have then
        insert_batch ctx ~from_id:(!have + 1) ~count:(size - !have) ~blob_bytes;
      have := max !have size;
      let t1 = Bench_db.now_ns ctx in
      seq_read ctx ~records:size;
      let t2 = Bench_db.now_ns ctx in
      (* the paper reads one random record at a time, in proportion to the
         database size; [rand_reads] caps the sample count *)
      rand_read ctx ~records:size ~samples:(min size rand_reads)
        ~seed:(string_of_int size);
      let t3 = Bench_db.now_ns ctx in
      points :=
        { records = size; insert_ns = t1 - t0; seq_read_ns = t2 - t1;
          rand_read_ns = t3 - t2 }
        :: !points)
    sizes;
  Bench_db.close ctx;
  { variant; storage; blob_bytes; points = List.rev !points }

(* Table II: normalised run time against native, split below/above the
   EPC boundary. [epc_records] is the database size (in records) at which
   the working set crosses the EPC. *)
let normalise ~(native : sweep_result) ~(other : sweep_result) ~epc_records field =
  let value p =
    match field with
    | `Insert -> p.insert_ns
    | `Seq -> p.seq_read_ns
    | `Rand -> p.rand_read_ns
  in
  let ratio_set pred =
    let pairs =
      List.filter_map
        (fun (n, o) ->
          if pred n.records && value n > 0 then
            Some (float_of_int (value o) /. float_of_int (value n))
          else None)
        (List.combine native.points other.points)
    in
    if pairs = [] then Float.nan
    else begin
      let sorted = List.sort compare pairs in
      List.nth sorted (List.length sorted / 2)
    end
  in
  (ratio_set (fun r -> r <= epc_records), ratio_set (fun r -> r > epc_records))

(* Fig 7: component breakdown of random reads over the protected file
   system, stock vs optimised, from the ledger accounts of the phase. *)
type breakdown = {
  ipfs_variant : Twine_ipfs.Protected_fs.variant;
  total_ns : int;
  memset_ns : int;
  ocall_ns : int;
  read_ns : int;  (* boundary copies + untrusted I/O + decryption *)
  sqlite_ns : int;
  accounts : (string * int) list;  (* ledger delta of the phase, desc *)
  machine : Twine_sgx.Machine.t;  (* the run's own machine, for its audit *)
}

let ipfs_breakdown ?(records = 2000) ?(blob_bytes = 512) ?(samples = 1500)
    ?(cache_pages = 64) ~wasm_factor ipfs_variant =
  let machine = Twine_sgx.Machine.create ~seed:"fig7" () in
  (* point reads of a warmed schema: model prepared statements (as
     Speedtest1 uses), so the SQLite share reflects execution, not SQL
     compilation *)
  let ctx =
    Bench_db.create ~machine ~cache_pages ~ipfs_variant ~wasm_factor
      ~ns_per_work:12. Bench_db.Twine_rt Bench_db.File
  in
  ignore (Bench_db.exec ctx schema);
  insert_batch ctx ~from_id:1 ~count:records ~blob_bytes;
  (* measure only the random-read phase: the ledger delta across it *)
  let ledger = Twine_sgx.Machine.ledger machine in
  let l0 = Twine_obs.Ledger.snapshot ledger in
  let t0 = Bench_db.now_ns ctx in
  rand_read ctx ~records ~samples ~seed:"breakdown";
  let total_ns = Bench_db.now_ns ctx - t0 in
  let l1 = Twine_obs.Ledger.snapshot ledger in
  let accounts =
    Twine_obs.Ledger.diff l0 l1
    |> List.filter_map (fun d ->
           if d.Twine_obs.Ledger.delta_ns > 0 then
             Some (d.Twine_obs.Ledger.account, d.Twine_obs.Ledger.delta_ns)
           else None)
  in
  let delta k = Option.value ~default:0 (List.assoc_opt k accounts) in
  let ns keys = List.fold_left (fun acc k -> acc + delta k) 0 keys in
  let r =
    {
      ipfs_variant;
      total_ns;
      memset_ns = ns [ "mee.memset" ];
      ocall_ns = ns [ "sgx.transition.ocall" ];
      read_ns = ns [ "ipfs.io"; "mee.copy"; "ipfs.crypto" ];
      sqlite_ns = ns [ "sqldb.exec"; "sqldb.pager" ];
      accounts;
      machine;
    }
  in
  Bench_db.close ctx;
  r
