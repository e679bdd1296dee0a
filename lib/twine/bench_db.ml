(* The four technology variants of the paper's SQLite evaluation (§V-C/D):

   - Native:   SQLite compiled natively, outside any enclave
   - Wamr:     the same engine built to Wasm and run by WAMR, outside SGX
   - Sgx_lkl:  the native build inside an enclave under a library OS; all
               POSIX I/O forwarded by OCALL, the disk image encrypted
   - Twine:    the Wasm build inside the enclave; file system calls go to
               the Intel Protected File System through the WASI layer

   CPU time is charged per unit of database work, at the Wasm slowdown
   the caller passes for the Wasm-based variants ([calibrate_wasm_factor]
   measures one on this machine from the PolyBench suite: AoT-engine
   time / native time).
   Memory behaviour (page-cache and heap residency vs the EPC) and I/O
   behaviour (OCALLs, cross-boundary copies, encryption) are simulated
   on the machine's virtual clock, so a workload's "time" is
   [Machine.now_ns] progress. *)

open Twine_sgx
open Twine_ipfs
open Twine_sqldb

type variant = Native | Wamr | Sgx_lkl | Twine_rt
type storage = Mem | File

let variant_name = function
  | Native -> "native"
  | Wamr -> "wamr"
  | Sgx_lkl -> "sgx-lkl"
  | Twine_rt -> "twine"

let storage_name = function Mem -> "mem" | File -> "file"

(* --- Wasm slowdown calibration from PolyBench --- *)

(* Measures afresh on every call: a caller that needs one factor for
   several experiments measures once and passes it on. *)
let calibrate_wasm_factor () =
  let kernels =
    List.filter
      (fun k ->
        List.mem k.Twine_polybench.Kernel_dsl.name
          [ "gemm"; "atax"; "jacobi-2d"; "trisolv"; "mvt" ])
      (Twine_polybench.Kernels.all ~scale:0.6 ())
  in
  let ratios =
    List.map
      (fun k ->
        let n = Twine_polybench.Suite.run_native k in
        let w = Twine_polybench.Suite.run_wasm ~engine:`Aot k in
        float_of_int (max 1 w.Twine_polybench.Suite.wall_ns)
        /. float_of_int (max 1 n.Twine_polybench.Suite.wall_ns))
      kernels
  in
  let sorted = List.sort compare ratios in
  max 1.5 (List.nth sorted (List.length sorted / 2))

(* --- storage stacks --- *)

(* Charge plain host-file I/O (the un-enclaved file variants). *)
let host_io_svfs (machine : Machine.t) (inner : Svfs.t) : Svfs.t =
  let io = Twine_obs.Ledger.account (Machine.ledger machine) "host.io" in
  let wrap_file (f : Svfs.file) : Svfs.file =
    let charge n =
      Machine.charge machine io
        (machine.costs.untrusted_io_base_ns
        + Costs.bytes_ns machine.costs.untrusted_io_ns_per_byte n)
    in
    {
      f with
      Svfs.v_read =
        (fun ~pos ~len ->
          charge len;
          f.Svfs.v_read ~pos ~len);
      v_write =
        (fun ~pos s ->
          charge (String.length s);
          f.Svfs.v_write ~pos s);
    }
  in
  { inner with Svfs.v_open = (fun path -> wrap_file (inner.Svfs.v_open path)) }

(* SGX-LKL file I/O: every read/write leaves the enclave (OCALL), copies
   across the boundary, and the disk image is encrypted/decrypted. *)
let lkl_io_svfs (enclave : Enclave.t) (inner : Svfs.t) : Svfs.t =
  let machine = Enclave.machine enclave in
  let account = Twine_obs.Ledger.account (Machine.ledger machine) in
  let io_acct = account "lkl.io" and crypto = account "lkl.crypto" in
  let wrap_file (f : Svfs.file) : Svfs.file =
    let io n g =
      let run () =
        Machine.charge machine io_acct
          (machine.costs.untrusted_io_base_ns
          + Costs.bytes_ns machine.costs.untrusted_io_ns_per_byte n);
        g ()
      in
      if Enclave.inside enclave then Enclave.ocall enclave ~name:"lkl.ocall" run
      else Enclave.ecall enclave (fun _ -> Enclave.ocall enclave ~name:"lkl.ocall" run)
    in
    {
      f with
      Svfs.v_read =
        (fun ~pos ~len ->
          let data = io len (fun () -> f.Svfs.v_read ~pos ~len) in
          Enclave.copy_in enclave (String.length data);
          Machine.charge machine crypto
            (Costs.bytes_ns machine.costs.aes_ns_per_byte (String.length data));
          data);
      v_write =
        (fun ~pos s ->
          Machine.charge machine crypto
            (Costs.bytes_ns machine.costs.aes_ns_per_byte (String.length s));
          Enclave.copy_out enclave (String.length s);
          io (String.length s) (fun () -> f.Svfs.v_write ~pos s));
    }
  in
  { inner with Svfs.v_open = (fun path -> wrap_file (inner.Svfs.v_open path)) }

(* Svfs over a protected file system (the TWINE file stack). *)
let pfs_svfs (fs : Protected_fs.t) : Svfs.t =
  let open_file path =
    let f = Protected_fs.open_file fs ~mode:`Rdwr path in
    {
      Svfs.v_read =
        (fun ~pos ~len ->
          match Protected_fs.seek f ~offset:pos ~whence:`Set with
          | Error _ -> ""
          | Ok _ ->
              let buf = Bytes.create len in
              let n = Protected_fs.read f buf ~off:0 ~len in
              Bytes.sub_string buf 0 n);
      v_write =
        (fun ~pos s ->
          Protected_fs.pad_to f pos;
          ignore (Protected_fs.seek f ~offset:pos ~whence:`Set);
          ignore (Protected_fs.write f s));
      v_truncate = (fun _ -> ());  (* IPFS cannot shrink files (§IV-E) *)
      v_size = (fun () -> Protected_fs.file_size f);
      v_sync = (fun () -> Protected_fs.flush f);
      v_close = (fun () -> Protected_fs.close f);
    }
  in
  {
    Svfs.v_open = open_file;
    v_delete = (fun path -> ignore (Protected_fs.delete fs path));
    v_exists = (fun path -> Protected_fs.exists fs path);
  }

(* --- the benchmark context --- *)

type t = {
  variant : variant;
  storage : storage;
  machine : Machine.t;
  enclave : Enclave.t option;
  db : Db.t;
  wasm_factor : float;
  ns_per_work : float;
  pager_work : int ref;  (* B-tree work units surfaced via Pager.hooks *)
  mutable pfs : Protected_fs.t option;
  exec_acct : Twine_obs.Ledger.account;
  pager_acct : Twine_obs.Ledger.account;
}

let in_enclave_cpu = function Sgx_lkl | Twine_rt -> true | Native | Wamr -> false
let is_wasm = function Wamr | Twine_rt -> true | Native | Sgx_lkl -> false

let create ?machine ?(cache_pages = 2048) ?(ipfs_variant = Protected_fs.Optimized)
    ~wasm_factor ?(ns_per_work = 60.) variant storage =
  let machine = match machine with Some m -> m | None -> Machine.create () in
  let enclave =
    if in_enclave_cpu variant then
      Some
        (Enclave.create machine
           ~signer:(variant_name variant)
           ~heap_bytes:(4 * 1024 * 1024)
           ~code:
             (match variant with
             | Sgx_lkl -> "sgx-lkl: libOS + native sqlite"
             | _ -> Runtime.runtime_code)
           ())
    else None
  in
  let pfs = ref None in
  let vfs =
    match (variant, storage) with
    | (Native | Wamr), Mem -> Svfs.memory ()
    | (Native | Wamr), File -> host_io_svfs machine (Svfs.memory ())
    | (Sgx_lkl | Twine_rt), Mem -> Svfs.memory ()
    | Sgx_lkl, File -> lkl_io_svfs (Option.get enclave) (Svfs.memory ())
    | Twine_rt, File ->
        let fs =
          Protected_fs.create (Option.get enclave) (Backing.memory ())
            ~variant:ipfs_variant ()
        in
        pfs := Some fs;
        pfs_svfs fs
  in
  (* For an in-memory database the page cache is effectively unbounded
     (the whole database lives in the process heap). *)
  let cache_pages = match storage with Mem -> 1_000_000 | File -> cache_pages in
  let hooks = Pager.default_hooks () in
  let pager_work = ref 0 in
  hooks.Pager.on_work <- (fun n -> pager_work := !pager_work + n);
  (match enclave with
  | Some e ->
      (* the page cache (and for Mem the whole database) is enclave
         memory: map page numbers to stable enclave addresses *)
      let base = Enclave.reserve e (1 lsl 33) in
      hooks.Pager.on_access <-
        (fun page_no ->
          Enclave.touch e ~addr:(base + (page_no * Pager.page_size)) ~len:Pager.page_size)
  | None -> ());
  let db = Db.open_db ~vfs ~cache_pages ~hooks ~obs:machine.Machine.obs "bench.db" in
  {
    variant;
    storage;
    machine;
    enclave;
    db;
    wasm_factor;
    ns_per_work;
    pager_work;
    pfs = !pfs;
    exec_acct = Twine_obs.Ledger.account (Machine.ledger machine) "sqldb.exec";
    pager_acct = Twine_obs.Ledger.account (Machine.ledger machine) "sqldb.pager";
  }

(* Execute SQL, charging CPU work at the variant's rate. *)
let exec t sql =
  Db.reset_work t.db;
  let result =
    match t.enclave with
    | Some e -> Enclave.ecall e (fun _ -> Db.exec t.db sql)
    | None -> Db.exec t.db sql
  in
  let factor = if is_wasm t.variant then t.wasm_factor else 1.0 in
  let work_ns work_units =
    int_of_float
      (Float.round (float_of_int work_units *. t.ns_per_work *. factor))
  in
  (* The statement's exec booking is sliced across its operator tree
     (plus profiling overhead) in proportion to self-work; the slices
     sum exactly to the single charge they replace, so the books stay
     byte-identical while each operator gains a cycle attribution. *)
  let exec_ns = work_ns (Db.work t.db) in
  (match Db.slices t.db ~total_ns:exec_ns with
  | [] -> Machine.charge t.machine t.exec_acct exec_ns
  | slices ->
      List.iter
        (fun (_, ns) -> if ns > 0 then Machine.charge t.machine t.exec_acct ns)
        slices);
  (* B-tree work units arrive via Pager.hooks between execs (open-time
     work lands in the first exec); book them as pager time *)
  if !(t.pager_work) > 0 then begin
    Machine.charge t.machine t.pager_acct (work_ns !(t.pager_work));
    t.pager_work := 0
  end;
  result

let query t sql = (exec t sql).Db.rows

let now_ns t = Machine.now_ns t.machine
let obs t = t.machine.Machine.obs

let close t =
  Db.close t.db;
  match t.enclave with Some e -> Enclave.destroy e | None -> ()
