(* TWINE core tests: the trusted runtime end-to-end (attested deployment,
   reserved-memory loading, SGX-hosted WASI with protected files), the
   benchmark variants and the performance-shape invariants the paper's
   evaluation rests on. *)

open Twine
open Twine_sgx

let hello_wat =
  {|(module
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (memory (export "memory") 1)
      (data (i32.const 100) "hello enclave\n")
      (func (export "_start")
        (i32.store (i32.const 8) (i32.const 100))
        (i32.store (i32.const 12) (i32.const 14))
        (drop (call $fd_write (i32.const 1) (i32.const 8) (i32.const 1) (i32.const 20)))))|}

(* A WASI app that persists a value to a file and reads it back, exiting
   with the number of bytes read (exercises path_open/fd_write/fd_seek/
   fd_read against the protected file system). *)
let persist_wat =
  {|(module
      (import "wasi_snapshot_preview1" "path_open"
        (func $path_open (param i32 i32 i32 i32 i32 i64 i64 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "fd_seek"
        (func $fd_seek (param i32 i64 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "fd_read"
        (func $fd_read (param i32 i32 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "proc_exit"
        (func $proc_exit (param i32)))
      (memory (export "memory") 1)
      (data (i32.const 50) "state.bin")
      (data (i32.const 100) "sealed-data")
      (func (export "_start")
        (local $fd i32)
        ;; open "state.bin" with CREAT in preopen fd 3
        (drop (call $path_open (i32.const 3) (i32.const 0) (i32.const 50) (i32.const 9)
                 (i32.const 1) (i64.const 0x1fffffff) (i64.const 0) (i32.const 0)
                 (i32.const 200)))
        (local.set $fd (i32.load (i32.const 200)))
        ;; write 11 bytes
        (i32.store (i32.const 8) (i32.const 100))
        (i32.store (i32.const 12) (i32.const 11))
        (drop (call $fd_write (local.get $fd) (i32.const 8) (i32.const 1) (i32.const 204)))
        ;; rewind, read back
        (drop (call $fd_seek (local.get $fd) (i64.const 0) (i32.const 0) (i32.const 208)))
        (i32.store (i32.const 8) (i32.const 300))
        (i32.store (i32.const 12) (i32.const 64))
        (drop (call $fd_read (local.get $fd) (i32.const 8) (i32.const 1) (i32.const 216)))
        (call $proc_exit (i32.load (i32.const 216)))))|}

let test_runtime_hello () =
  let machine = Machine.create ~seed:"rt" () in
  let rt = Runtime.create machine in
  Runtime.deploy rt (Twine_wasm.Wat.parse hello_wat);
  let r = Runtime.run rt in
  Alcotest.(check int) "exit 0" 0 r.Runtime.exit_code;
  Alcotest.(check string) "stdout" "hello enclave\n" r.Runtime.stdout

let test_runtime_interpreter_engine () =
  let machine = Machine.create ~seed:"rt-int" () in
  let config = { Runtime.default_config with engine = Runtime.Interpreter } in
  let rt = Runtime.create ~config machine in
  Runtime.deploy rt (Twine_wasm.Wat.parse hello_wat);
  let r = Runtime.run rt in
  Alcotest.(check string) "stdout" "hello enclave\n" r.Runtime.stdout;
  Alcotest.(check bool) "interpreter metered fuel" true (r.Runtime.fuel > 0)

let test_runtime_protected_persistence () =
  let machine = Machine.create ~seed:"rt-fs" () in
  let backing = Twine_sim.Backing.memory () in
  let rt = Runtime.create ~backing machine in
  Runtime.deploy rt (Twine_wasm.Wat.parse persist_wat);
  let r = Runtime.run rt in
  Alcotest.(check int) "read back 11 bytes" 11 r.Runtime.exit_code;
  (* the backing store must contain ciphertext only *)
  let leaked = ref false in
  List.iter
    (fun key ->
      match Twine_sim.Backing.size backing key with
      | None -> ()
      | Some n ->
          let raw = Twine_sim.Backing.read backing key ~pos:0 ~len:n in
          let rec has i =
            i + 11 <= String.length raw
            && (String.sub raw i 11 = "sealed-data" || has (i + 1))
          in
          if has 0 then leaked := true)
    (Twine_sim.Backing.list backing);
  Alcotest.(check bool) "no plaintext on untrusted storage" false !leaked

let test_attested_deploy_flow () =
  let machine = Machine.create ~seed:"deploy" () in
  let rt = Runtime.create machine in
  let wasm = Twine_wasm.Binary.encode (Twine_wasm.Wat.parse hello_wat) in
  let service = Attestation.service_for machine in
  let provider = Runtime.Provider.create ~wasm ~service in
  Runtime.deploy_from rt provider;
  let r = Runtime.run rt in
  Alcotest.(check string) "deployed over channel" "hello enclave\n" r.Runtime.stdout

let test_attested_deploy_rejects_rogue_machine () =
  (* the provider registered with machine A's service must refuse an
     enclave on machine B *)
  let machine_a = Machine.create ~seed:"honest" () in
  let machine_b = Machine.create ~seed:"rogue" () in
  let rt_b = Runtime.create machine_b in
  let wasm = Twine_wasm.Binary.encode (Twine_wasm.Wat.parse hello_wat) in
  let service_a = Attestation.service_for machine_a in
  let provider = Runtime.Provider.create ~wasm ~service:service_a in
  Alcotest.(check bool) "rejected" true
    (try
       Runtime.deploy_from rt_b provider;
       false
     with Runtime.Deploy_error _ -> true)

let test_deploy_rejects_invalid_module () =
  let machine = Machine.create ~seed:"badmod" () in
  let rt = Runtime.create machine in
  let bad =
    (* type error: f64 into i32 op *)
    let b = Twine_wasm.Builder.create () in
    ignore
      (Twine_wasm.Builder.add_func b ~name:"_start" ~params:[] ~results:[]
         ~locals:[]
         [ Twine_wasm.Ast.F64_const 1.0; Twine_wasm.Ast.I32_unop Twine_wasm.Ast.Clz;
           Twine_wasm.Ast.Drop ]);
    Twine_wasm.Builder.build b
  in
  Alcotest.(check bool) "validator refuses" true
    (try
       Runtime.deploy rt bad;
       false
     with Twine_wasm.Validate.Invalid _ -> true)

(* --- benchmark variants: shape invariants --- *)

let small_sizes = [ 200; 400 ]

let total_time variant storage =
  let machine = Machine.create ~seed:"shape" () in
  let r =
    Microbench.sweep ~machine ~blob_bytes:128 ~rand_reads:60
      ~wasm_factor:2.5 variant storage ~sizes:small_sizes ()
  in
  List.fold_left
    (fun acc p -> acc + p.Microbench.insert_ns + p.Microbench.seq_read_ns + p.Microbench.rand_read_ns)
    0 r.Microbench.points

let test_variant_ordering () =
  let native = total_time Bench_db.Native Bench_db.Mem in
  let wamr = total_time Bench_db.Wamr Bench_db.Mem in
  let twine = total_time Bench_db.Twine_rt Bench_db.Mem in
  Alcotest.(check bool)
    (Printf.sprintf "wamr (%d) slower than native (%d)" wamr native)
    true (wamr > native);
  Alcotest.(check bool)
    (Printf.sprintf "twine (%d) slower than wamr (%d)" twine wamr)
    true (twine > wamr)

let test_file_storage_slower_than_mem () =
  let mem = total_time Bench_db.Twine_rt Bench_db.Mem in
  let file = total_time Bench_db.Twine_rt Bench_db.File in
  Alcotest.(check bool)
    (Printf.sprintf "file (%d) slower than mem (%d)" file mem)
    true (file > mem)

let test_epc_cliff () =
  (* with a tiny EPC, random reads on an in-memory enclave database get
     dramatically slower once the database exceeds it *)
  let epc_bytes = 64 * 4096 in
  let machine = Machine.create ~seed:"cliff" ~epc_bytes () in
  let r =
    Microbench.sweep ~machine ~blob_bytes:512 ~rand_reads:150 ~wasm_factor:2.5
      Bench_db.Twine_rt Bench_db.Mem ~sizes:[ 100; 1500 ] ()
  in
  match r.Microbench.points with
  | [ small; large ] ->
      let per_read_small = small.Microbench.rand_read_ns / min 100 150 in
      let per_read_large = large.Microbench.rand_read_ns / min 1500 150 in
      Alcotest.(check bool)
        (Printf.sprintf "beyond-EPC reads (%d ns) >> within-EPC (%d ns)"
           per_read_large per_read_small)
        true
        (per_read_large > 2 * per_read_small)
  | _ -> Alcotest.fail "expected two points"

let test_fig7_breakdown_shape () =
  let stock = Microbench.ipfs_breakdown ~records:1000 ~samples:400 ~cache_pages:32
      ~wasm_factor:2.5 Twine_ipfs.Protected_fs.Stock in
  let opt = Microbench.ipfs_breakdown ~records:1000 ~samples:400 ~cache_pages:32
      ~wasm_factor:2.5 Twine_ipfs.Protected_fs.Optimized in
  Alcotest.(check bool) "stock spends time in memset" true (stock.Microbench.memset_ns > 0);
  Alcotest.(check int) "optimised spends none" 0 opt.Microbench.memset_ns;
  Alcotest.(check bool)
    (Printf.sprintf "optimised total (%d) < stock total (%d)"
       opt.Microbench.total_ns stock.Microbench.total_ns)
    true
    (opt.Microbench.total_ns < stock.Microbench.total_ns);
  (* §V-F: memset is the largest stock component *)
  Alcotest.(check bool) "memset dominates stock read path" true
    (stock.Microbench.memset_ns > stock.Microbench.sqlite_ns)

let test_software_mode_faster () =
  let hw = Machine.create ~seed:"fig6" ~epc_bytes:(128 * 4096) () in
  let sw = Machine.create ~seed:"fig6" ~epc_bytes:(128 * 4096) () in
  Machine.set_software_mode sw;
  let run machine =
    let r =
      Microbench.sweep ~machine ~blob_bytes:512 ~rand_reads:100 ~wasm_factor:2.5
        Bench_db.Twine_rt Bench_db.Mem ~sizes:[ 1200 ] ()
    in
    (List.hd r.Microbench.points).Microbench.rand_read_ns
  in
  let hw_ns = run hw and sw_ns = run sw in
  Alcotest.(check bool)
    (Printf.sprintf "software mode (%d) faster than hardware (%d)" sw_ns hw_ns)
    true (sw_ns < hw_ns)

(* --- speedtest --- *)

let test_speedtest_complete () =
  Alcotest.(check int) "29 tests" 29 (List.length Speedtest.tests)

let test_speedtest_runs_all_variants () =
  List.iter
    (fun (variant, storage) ->
      let machine = Machine.create ~seed:"st" () in
      let results =
        Speedtest.run_suite ~machine ~wasm_factor:2.5 variant storage ~size:60 ()
      in
      Alcotest.(check int)
        (Bench_db.variant_name variant ^ "/" ^ Bench_db.storage_name storage)
        29 (List.length results);
      List.iter
        (fun (id, ns) ->
          Alcotest.(check bool) (Printf.sprintf "test %d took time" id) true (ns >= 0))
        results)
    [ (Bench_db.Native, Bench_db.Mem); (Bench_db.Wamr, Bench_db.Mem);
      (Bench_db.Sgx_lkl, Bench_db.File); (Bench_db.Twine_rt, Bench_db.File) ]

let test_wasm_factor_calibration () =
  let f = Bench_db.calibrate_wasm_factor () in
  Alcotest.(check bool) (Printf.sprintf "factor %.2f in sane range" f) true
    (f >= 1.5 && f < 200.)

let suite =
  [ ("runtime", [
      Alcotest.test_case "hello world" `Quick test_runtime_hello;
      Alcotest.test_case "interpreter engine" `Quick test_runtime_interpreter_engine;
      Alcotest.test_case "protected persistence" `Quick test_runtime_protected_persistence;
      Alcotest.test_case "attested deploy" `Quick test_attested_deploy_flow;
      Alcotest.test_case "rogue machine rejected" `Quick test_attested_deploy_rejects_rogue_machine;
      Alcotest.test_case "invalid module rejected" `Quick test_deploy_rejects_invalid_module;
    ]);
    ("variants", [
      Alcotest.test_case "native < wamr < twine" `Slow test_variant_ordering;
      Alcotest.test_case "file slower than mem" `Slow test_file_storage_slower_than_mem;
      Alcotest.test_case "EPC cliff" `Slow test_epc_cliff;
      Alcotest.test_case "fig7 breakdown" `Slow test_fig7_breakdown_shape;
      Alcotest.test_case "fig6 software mode" `Slow test_software_mode_faster;
    ]);
    ("speedtest", [
      Alcotest.test_case "29 tests" `Quick test_speedtest_complete;
      Alcotest.test_case "all variants run" `Slow test_speedtest_runs_all_variants;
      Alcotest.test_case "wasm factor calibration" `Slow test_wasm_factor_calibration;
    ]);
  ]

let () = Alcotest.run "twine_core" suite
