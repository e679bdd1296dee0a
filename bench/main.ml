(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§V). Sections:

     fig3    PolyBench/C, normalised to native (native / WAMR / TWINE)
     fig4    SQLite Speedtest1 relative performance (29 tests, 4 systems,
             in-memory and in-file)
     fig5    micro-benchmarks: insertion / sequential read / random read
             vs database size (8 series)
     table2  normalised run times split at the EPC boundary
     table3  cost factors (times and sizes)
     fig6    SGX hardware vs software mode
     fig7    IPFS time breakdown, stock vs optimised (§V-F)
     ablate  design-choice ablations (page cache, node cache, engines)
     micro   Bechamel wall-clock micro-benchmarks of core primitives
     report  per-run telemetry report of a WASI-heavy workload (table+JSON)
     profile guest-level profiler: hot functions, interp-vs-AoT parity,
             folded stacks written to polybench-atax.folded
     crash   crash-point recovery matrix and fault-plan determinism
     serve   multi-enclave serving fleet on one shared EPC: open-loop
             replay, ECALL batching, throughput-vs-fleet-size cliff
     chaos   the serving fleet under seeded fault schedules: failover,
             retry, shedding, replay determinism
     sql     per-operator query observability: EXPLAIN ANALYZE trees of
             the serving shapes, the zero-residue attribution audit,
             access-path census and query-stats fingerprints

   Run everything with `dune exec bench/main.exe`, or one section by name
   (e.g. `dune exec bench/main.exe fig5`; an unknown name exits 2). `json`,
   `check` and `diff` write, gate and explain BENCH_twine.json.

   Scaling: datasets are reduced from the paper's server-scale runs and
   the simulated EPC is shrunk proportionally so the EPC crossover falls
   inside the sweep; EXPERIMENTS.md records the mapping. Simulated times
   are virtual nanoseconds on the machine clock; PolyBench numbers are
   measured wall-clock. *)

open Twine
open Twine_sgx

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let hr () = print_endline (String.make 78 '-')

(* What a section's run returns: the conservation laws it evaluated and
   the name of every check of its own that failed. *)
type outcome = { laws : Twine_obs.Audit.t list; failed : string list }

let passed = { laws = []; failed = [] }
let unless ok name = if ok then [] else [ name ]

(* [keep] hands each machine to whoever audits it: [audited] for a
   section, nobody for a gate (its ledger residue is a gated metric). *)
let machine keep ?epc_bytes ~seed () =
  let m = Machine.create ?epc_bytes ~seed () in
  keep m;
  m

(* The PolyBench-measured Wasm slowdown, shared by every figure. *)
let measured_wasm_factor = lazy (Bench_db.calibrate_wasm_factor ())

(* The one exit path of a section: its laws and the ledger of every
   machine it made must balance and its checks must hold, or each failure
   is printed and the harness exits 1. Machine.charge is the only
   clock-advance site, so a ledger residue means a bookkeeping bug. *)
let audited name run =
  let made = ref [] in
  let { laws; failed } = run (fun m -> made := m :: !made) in
  let machines = List.rev !made in
  let audits =
    laws @ List.map (fun m -> Twine_obs.Ledger.audit (Machine.ledger m)) machines
  in
  let unbalanced = Twine_obs.Audit.check audits in
  if unbalanced = [] then
    Printf.printf "[audit] %s: %d audit(s) balanced over %d machine(s)\n" name
      (List.length audits) (List.length machines)
  else
    List.iter
      (fun a -> Printf.printf "[audit] %s: %s\n" name (Twine_obs.Audit.render a))
      unbalanced;
  List.iter (fun c -> Printf.printf "[check] %s: FAILED %s\n" name c) failed;
  if unbalanced <> [] || failed <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Gates: the fixed-seed workloads of `bench json|check|diff`          *)
(* ------------------------------------------------------------------ *)

(* Every gated metric is produced on the virtual clock from fixed seeds
   and a pinned Wasm slowdown factor, so a healthy tree reproduces the
   committed values exactly; the tolerance bands absorb benign drift
   when the cost model is retuned deliberately. PolyBench wall-clock
   metrics carry no band: recorded for trend inspection, never gating.
   A gate's [group] names its workload, and [snap] is the ledger its
   drift is attributed with ([None]: no ledger of its own). *)
type gate = {
  group : string;
  metrics : (string * Twine_obs.Baseline.metric) list;
  snap : Twine_obs.Ledger.snapshot option;
}

let baseline_wasm_factor = 2.5
let exact = Twine_obs.Baseline.v ~tol:0.0
let banded = Twine_obs.Baseline.v ~tol:0.02

(* A gate that also pins its machine's ledger: every account's total
   (band 2%) and the audit residue at exactly zero. *)
let gated group machine metrics =
  let open Twine_obs in
  let l = Machine.ledger machine in
  let snap = Ledger.snapshot l in
  let pfx = "ledger." ^ group ^ "." in
  {
    group;
    metrics =
      metrics
      @ [ exact (pfx ^ "residue_ns") (Audit.residue (Ledger.audit l));
          banded (pfx ^ "elapsed_ns") snap.Ledger.elapsed_ns ]
      @ List.map
          (fun (name, e) -> banded (pfx ^ name) e.Ledger.ns)
          snap.Ledger.accounts;
    snap = Some snap;
  }

(* ------------------------------------------------------------------ *)
(* Fig 3: PolyBench/C                                                  *)
(* ------------------------------------------------------------------ *)

(* TWINE = AoT engine inside an enclave: measured AoT wall time plus the
   simulated SGX overhead (EPC paging of the Wasm linear memory and the
   run's enclave transitions). The EPC for this experiment is scaled so
   that the biggest kernels exceed it, as deriche/lu/ludcmp did in the
   paper (§V-B). *)
let fig3_epc_bytes = 2 * 1024 * 1024

(* A kernel AoT-compiled inside a fresh enclave on [machine], its linear
   memory reserved in the enclave so guest accesses page through the EPC. *)
let enclave_kernel machine k =
  let enclave = Enclave.create machine ~heap_bytes:0 ~code:Runtime.runtime_code () in
  let m, _lay = Twine_polybench.Kernel_dsl.comp_wasm k in
  let inst = Twine_wasm.Interp.instantiate m in
  ignore (Twine_wasm.Aot.compile_instance inst);
  (match inst.Twine_wasm.Instance.memory with
  | Some mem ->
      let base = Enclave.reserve enclave (Twine_wasm.Memory.size_bytes mem) in
      Runtime.install_memory_hook enclave ~base mem
  | None -> ());
  (enclave, inst)

let twine_kernel_ns keep k =
  let machine = machine keep ~seed:"fig3" ~epc_bytes:fig3_epc_bytes () in
  let enclave, inst = enclave_kernel machine k in
  let sim0 = Machine.now_ns machine in
  let t0 = Unix.gettimeofday () in
  Enclave.ecall enclave (fun _ -> ignore (Twine_wasm.Interp.invoke inst "kernel" []));
  let wall = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  wall + (Machine.now_ns machine - sim0)

let fig3 keep =
  section "Fig 3: PolyBench/C performance normalised to native";
  Printf.printf "%-16s %10s %10s %10s   %8s %8s\n" "kernel" "native(us)" "wamr(us)"
    "twine(us)" "wamr/nat" "twine/nat";
  hr ();
  let kernels = Twine_polybench.Kernels.all () in
  let ratios =
    List.map
      (fun k ->
        let native = (Twine_polybench.Suite.run_native k).Twine_polybench.Suite.wall_ns in
        let native = max 1 native in
        let wamr =
          (Twine_polybench.Suite.run_wasm ~engine:`Aot k).Twine_polybench.Suite.wall_ns
        in
        let twine = twine_kernel_ns keep k in
        let rw = float_of_int wamr /. float_of_int native in
        let rt = float_of_int twine /. float_of_int native in
        Printf.printf "%-16s %10.1f %10.1f %10.1f   %8.2f %8.2f\n"
          k.Twine_polybench.Kernel_dsl.name
          (float_of_int native /. 1e3)
          (float_of_int wamr /. 1e3)
          (float_of_int twine /. 1e3)
          rw rt;
        (rw, rt))
      kernels
  in
  hr ();
  let med l =
    let s = List.sort compare l in
    List.nth s (List.length s / 2)
  in
  Printf.printf
    "median slowdown: wamr %.2fx, twine %.2fx (paper: Wasm 2-4x; TWINE ~ WAMR with EPC outliers)\n"
    (med (List.map fst ratios))
    (med (List.map snd ratios));
  passed

(* ------------------------------------------------------------------ *)
(* Fig 4: Speedtest1                                                   *)
(* ------------------------------------------------------------------ *)

let fig4_size = 120

let fig4 keep =
  section "Fig 4: SQLite Speedtest1, relative performance (simulated time, ms)";
  let wf = Lazy.force measured_wasm_factor in
  Printf.printf "(size=%d per test; Wasm factor %.2f measured from PolyBench)\n"
    fig4_size wf;
  let series =
    [ ("native", Bench_db.Native); ("wamr", Bench_db.Wamr);
      ("sgx-lkl", Bench_db.Sgx_lkl); ("twine", Bench_db.Twine_rt) ]
  in
  List.iter
    (fun (storage, sname) ->
      Printf.printf "\n-- %s database --\n" sname;
      Printf.printf "%5s  %-38s" "test" "description";
      List.iter (fun (n, _) -> Printf.printf " %9s" n) series;
      Printf.printf "  %9s %9s\n" "wamr/nat" "twine/nat";
      hr ();
      let results =
        List.map
          (fun (_, v) ->
            let machine = machine keep ~seed:"fig4" () in
            Speedtest.run_suite ~machine ~wasm_factor:wf v storage ~size:fig4_size ())
          series
      in
      List.iteri
        (fun ti t ->
          Printf.printf "%5d  %-38s" t.Speedtest.id
            (String.sub t.Speedtest.label 0 (min 38 (String.length t.Speedtest.label)));
          let times = List.map (fun r -> snd (List.nth r ti)) results in
          List.iter (fun ns -> Printf.printf " %9.2f" (float_of_int ns /. 1e6)) times;
          (match times with
          | [ nat; wamr; _lkl; twine ] when nat > 0 ->
              Printf.printf "  %9.2f %9.2f"
                (float_of_int wamr /. float_of_int nat)
                (float_of_int twine /. float_of_int nat)
          | _ -> ());
          Printf.printf "\n")
        Speedtest.tests;
      match results with
      | [ nat; wamr; _lkl; twine ] ->
          let tot r = List.fold_left (fun a (_, ns) -> a + ns) 0 r in
          Printf.printf "%5s  %-38s" "" "TOTAL";
          List.iter (fun r -> Printf.printf " %9.2f" (float_of_int (tot r) /. 1e6)) results;
          Printf.printf "  %9.2f %9.2f   (paper: wamr/nat ~4x, twine/wamr ~1.7-1.9x)\n"
            (float_of_int (tot wamr) /. float_of_int (tot nat))
            (float_of_int (tot twine) /. float_of_int (tot wamr))
      | _ -> ())
    [ (Bench_db.Mem, "in-memory"); (Bench_db.File, "in-file") ];
  passed

(* ------------------------------------------------------------------ *)
(* Fig 5 + Table II: micro-benchmarks                                  *)
(* ------------------------------------------------------------------ *)

(* Scaled sweep: paper went 1k..175k x 1 KiB records against a 93 MiB
   EPC; we go 250..4000 x 256 B against a 768 KiB EPC, so the crossover
   falls inside the sweep. *)
let fig5_sizes = [ 250; 500; 1000; 1500; 2000; 2500; 3000; 3500; 4000 ]
let fig5_epc_bytes = 192 * 4096
let fig5_blob = 256
let fig5_rand_reads = 2500
let fig5_epc_records = 2200

let fig5_series keep =
  let wf = Lazy.force measured_wasm_factor in
  List.map
    (fun (name, variant, storage) ->
      let machine = machine keep ~seed:"fig5" ~epc_bytes:fig5_epc_bytes () in
      let r =
        Microbench.sweep ~machine ~blob_bytes:fig5_blob ~rand_reads:fig5_rand_reads
          ~cache_pages:64 ~wasm_factor:wf variant storage ~sizes:fig5_sizes ()
      in
      (name, r))
    [ ("native/mem", Bench_db.Native, Bench_db.Mem);
      ("native/file", Bench_db.Native, Bench_db.File);
      ("wamr/mem", Bench_db.Wamr, Bench_db.Mem);
      ("wamr/file", Bench_db.Wamr, Bench_db.File);
      ("sgx-lkl/mem", Bench_db.Sgx_lkl, Bench_db.Mem);
      ("sgx-lkl/file", Bench_db.Sgx_lkl, Bench_db.File);
      ("twine/mem", Bench_db.Twine_rt, Bench_db.Mem);
      ("twine/file", Bench_db.Twine_rt, Bench_db.File) ]

let print_fig5 series field title =
  section title;
  Printf.printf "%-8s" "records";
  List.iter (fun (n, _) -> Printf.printf " %12s" n) series;
  print_newline ();
  hr ();
  List.iteri
    (fun idx size ->
      Printf.printf "%-8d" size;
      List.iter
        (fun (_, r) ->
          let p = List.nth r.Microbench.points idx in
          let v =
            match field with
            | `Insert -> p.Microbench.insert_ns
            | `Seq -> p.Microbench.seq_read_ns
            | `Rand -> p.Microbench.rand_read_ns
          in
          Printf.printf " %12.3f" (float_of_int v /. 1e6))
        series;
      print_newline ())
    fig5_sizes;
  ignore field

let table2 series =
  section "Table II: normalised run time (native = 1), split at the EPC boundary";
  Printf.printf "(EPC boundary at ~%d records)\n" fig5_epc_records;
  Printf.printf "%-18s %28s %29s %28s\n" "" "WAMR" "SGX-LKL" "TWINE";
  Printf.printf "%-18s %13s %14s %13s %14s %13s %14s\n" "workload" "<EPC" ">=EPC" "<EPC"
    ">=EPC" "<EPC" ">=EPC";
  hr ();
  let get name = List.assoc name series in
  List.iter
    (fun (label, field, suffix) ->
      let native = get ("native/" ^ suffix) in
      let row sys =
        Microbench.normalise ~native
          ~other:(get (sys ^ "/" ^ suffix))
          ~epc_records:fig5_epc_records field
      in
      let w_lo, w_hi = row "wamr" in
      let l_lo, l_hi = row "sgx-lkl" in
      let t_lo, t_hi = row "twine" in
      Printf.printf "%-18s %13.1f %14.1f %13.1f %14.1f %13.1f %14.1f\n" label w_lo w_hi
        l_lo l_hi t_lo t_hi)
    [ ("Insert mem.", `Insert, "mem"); ("Insert file", `Insert, "file");
      ("Seq. read mem.", `Seq, "mem"); ("Seq. read file", `Seq, "file");
      ("Rand. read mem.", `Rand, "mem"); ("Rand. read file", `Rand, "file") ]

let fig5_table2 keep =
  let series = fig5_series keep in
  print_fig5 series `Insert "Fig 5a: insertion time vs database size (ms, simulated)";
  print_fig5 series `Seq
    "Fig 5b: sequential-read time vs database size (ms, simulated)";
  print_fig5 series `Rand
    (Printf.sprintf
       "Fig 5c: random-read time (one read per record, cap %d) vs size (ms, simulated)"
       fig5_rand_reads);
  table2 series;
  passed

(* ------------------------------------------------------------------ *)
(* Fig 6: hardware vs software SGX                                     *)
(* ------------------------------------------------------------------ *)

let fig6 keep =
  section "Fig 6: SGX hardware vs software (simulation) mode, in-file DB";
  let wf = Lazy.force measured_wasm_factor in
  let run variant software =
    let machine = machine keep ~seed:"fig6" ~epc_bytes:fig5_epc_bytes () in
    if software then Machine.set_software_mode machine;
    let r =
      Microbench.sweep ~machine ~blob_bytes:fig5_blob ~rand_reads:fig5_rand_reads
        ~cache_pages:64 ~wasm_factor:wf variant Bench_db.File ~sizes:[ 3000 ] ()
    in
    List.hd r.Microbench.points
  in
  Printf.printf "%-14s %-10s %12s %12s %12s\n" "system" "mode" "insert(ms)"
    "seqread(ms)" "randread(ms)";
  hr ();
  List.iter
    (fun (name, variant) ->
      List.iter
        (fun (mode, sw) ->
          let p = run variant sw in
          Printf.printf "%-14s %-10s %12.3f %12.3f %12.3f\n" name mode
            (float_of_int p.Microbench.insert_ns /. 1e6)
            (float_of_int p.Microbench.seq_read_ns /. 1e6)
            (float_of_int p.Microbench.rand_read_ns /. 1e6))
        [ ("hardware", false); ("software", true) ])
    [ ("sgx-lkl", Bench_db.Sgx_lkl); ("twine", Bench_db.Twine_rt) ];
  passed

(* ------------------------------------------------------------------ *)
(* Fig 7: IPFS breakdown and the SDK optimisation                      *)
(* ------------------------------------------------------------------ *)

let fig7 keep =
  section "Fig 7: protected-FS time breakdown (random reads), stock vs optimised";
  let wasm_factor = Lazy.force measured_wasm_factor in
  let stock = Microbench.ipfs_breakdown ~wasm_factor Twine_ipfs.Protected_fs.Stock in
  let opt = Microbench.ipfs_breakdown ~wasm_factor Twine_ipfs.Protected_fs.Optimized in
  keep stock.Microbench.machine;
  keep opt.Microbench.machine;
  let pct part total = 100. *. float_of_int part /. float_of_int (max 1 total) in
  let print (b : Microbench.breakdown) name =
    Printf.printf
      "%-10s total %8.2f ms | memset %5.1f%%  ocall %5.1f%%  read %5.1f%%  sqlite %5.1f%%  other %5.1f%%\n"
      name
      (float_of_int b.Microbench.total_ns /. 1e6)
      (pct b.Microbench.memset_ns b.Microbench.total_ns)
      (pct b.Microbench.ocall_ns b.Microbench.total_ns)
      (pct b.Microbench.read_ns b.Microbench.total_ns)
      (pct b.Microbench.sqlite_ns b.Microbench.total_ns)
      (pct
         (b.Microbench.total_ns - b.Microbench.memset_ns - b.Microbench.ocall_ns
        - b.Microbench.read_ns - b.Microbench.sqlite_ns)
         b.Microbench.total_ns)
  in
  print stock "stock";
  print opt "optimised";
  (* the same phase, attributed by ledger account (disjoint; sums to
     the phase total by the conservation invariant) *)
  Printf.printf "\nledger attribution of the random-read phase:\n";
  Printf.printf "%-22s %12s %7s %12s %7s\n" "account" "stock(ms)" "share"
    "optim.(ms)" "share";
  let all_accounts =
    List.sort_uniq compare
      (List.map fst stock.Microbench.accounts
      @ List.map fst opt.Microbench.accounts)
  in
  let ordered =
    List.sort
      (fun a b ->
        compare
          (try List.assoc b stock.Microbench.accounts with Not_found -> 0)
          (try List.assoc a stock.Microbench.accounts with Not_found -> 0))
      all_accounts
  in
  List.iter
    (fun acct ->
      let get (b : Microbench.breakdown) =
        try List.assoc acct b.Microbench.accounts with Not_found -> 0
      in
      Printf.printf "%-22s %12.2f %6.1f%% %12.2f %6.1f%%\n" acct
        (float_of_int (get stock) /. 1e6)
        (pct (get stock) stock.Microbench.total_ns)
        (float_of_int (get opt) /. 1e6)
        (pct (get opt) opt.Microbench.total_ns))
    ordered;
  Printf.printf "\n";
  Printf.printf
    "random-read speedup from the Section V-F changes: %.2fx (paper: 4.1x)\n"
    (float_of_int stock.Microbench.total_ns /. float_of_int opt.Microbench.total_ns);
  let phase_speedup f =
    let run v =
      let machine = machine keep ~seed:"fig7b" () in
      let r =
        Microbench.sweep ~machine ~blob_bytes:512 ~rand_reads:200 ~cache_pages:64
          ~ipfs_variant:v ~wasm_factor:2.5 Bench_db.Twine_rt Bench_db.File
          ~sizes:[ 1500 ] ()
      in
      f (List.hd r.Microbench.points)
    in
    float_of_int (run Twine_ipfs.Protected_fs.Stock)
    /. float_of_int (max 1 (run Twine_ipfs.Protected_fs.Optimized))
  in
  Printf.printf
    "insertion speedup: %.2fx (paper: 1.5x); sequential read speedup: %.2fx (paper: 2.5x)\n"
    (phase_speedup (fun p -> p.Microbench.insert_ns))
    (phase_speedup (fun p -> p.Microbench.seq_read_ns));
  passed

(* ------------------------------------------------------------------ *)
(* Table III: cost factors                                             *)
(* ------------------------------------------------------------------ *)

let table3 keep =
  section "Table III: cost factors of the micro-benchmarks";
  let kernels = Twine_polybench.Kernels.all () in
  let wasm_bytes =
    List.fold_left
      (fun acc k ->
        let m, _ = Twine_polybench.Kernel_dsl.comp_wasm k in
        acc + String.length (Twine_wasm.Binary.encode m))
      0 kernels
  in
  let aot_ratio = 3707. /. 1155. in
  let launch_of ~heap_bytes ~code =
    let machine = machine keep ~seed:"t3" () in
    let t0 = Machine.now_ns machine in
    let e = Enclave.create machine ~heap_bytes ~code () in
    ignore e;
    Machine.now_ns machine - t0
  in
  (* enclaves sized to hold the full benchmark dataset, as the paper
     configures them (TWINE ~205 MiB, SGX-LKL ~255 MiB + disk image) *)
  let twine_launch =
    launch_of ~heap_bytes:(205 * 1024 * 1024) ~code:Runtime.runtime_code
  in
  let lkl_launch =
    (* SGX-LKL: larger enclave plus decrypting the 242 MiB disk image *)
    let image_bytes = 247_552 * 1024 in
    launch_of ~heap_bytes:(255 * 1024 * 1024) ~code:"sgx-lkl libOS kernel"
    + Costs.bytes_ns Costs.default.aes_ns_per_byte image_bytes
  in
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let wasm_compile_ms =
    time_ms (fun () ->
        List.iter
          (fun k ->
            let m, _ = Twine_polybench.Kernel_dsl.comp_wasm k in
            ignore (Twine_wasm.Binary.encode m))
          kernels)
  in
  let aot_compile_ms =
    time_ms (fun () ->
        List.iter
          (fun k ->
            let m, _ = Twine_polybench.Kernel_dsl.comp_wasm k in
            let inst = Twine_wasm.Interp.instantiate m in
            ignore (Twine_wasm.Aot.compile_instance inst))
          kernels)
  in
  Printf.printf "(a) Times                           Native    SGX-LKL     WAMR    TWINE\n";
  hr ();
  Printf.printf "Compile Wasm suite [ms, measured]        -          -  %7.1f  %7.1f\n"
    wasm_compile_ms wasm_compile_ms;
  Printf.printf "AoT-compile suite [ms, measured]         -          -  %7.1f  %7.1f\n"
    aot_compile_ms aot_compile_ms;
  Printf.printf "Launch [us, simulated]                  ~0   %8.1f       ~0  %7.1f\n"
    (float_of_int lkl_launch /. 1e3)
    (float_of_int twine_launch /. 1e3);
  Printf.printf "  -> TWINE launches %.2fx faster than SGX-LKL (paper: 1.94x)\n"
    (float_of_int lkl_launch /. float_of_int twine_launch);
  Printf.printf "\n(b) Sizes                           Native    SGX-LKL     WAMR    TWINE\n";
  hr ();
  let self_kib =
    try (Unix.stat Sys.executable_name).Unix.st_size / 1024 with Unix.Unix_error _ -> 0
  in
  Printf.printf "Bench executable, disk [KiB]       %7d   %8d  %7d  %7d\n" self_kib
    (self_kib + 4096) self_kib self_kib;
  Printf.printf "Wasm artifact, disk [KiB]                -          -  %7d  %7d\n"
    (wasm_bytes / 1024) (wasm_bytes / 1024);
  Printf.printf "AoT artifact, disk [KiB, @%.2fx]          -        -  %7d  %7d\n"
    aot_ratio
    (int_of_float (float_of_int wasm_bytes *. aot_ratio /. 1024.))
    (int_of_float (float_of_int wasm_bytes *. aot_ratio /. 1024.));
  let machine = machine keep ~seed:"t3b" () in
  let twine_enclave =
    Enclave.create machine ~heap_bytes:(205 * 1024 * 1024) ~code:Runtime.runtime_code ()
  in
  let lkl_enclave =
    Enclave.create machine ~heap_bytes:(255 * 1024 * 1024) ~code:"sgx-lkl libOS kernel" ()
  in
  Printf.printf "Enclave, memory [KiB, simulated]         -   %8d        -  %7d\n"
    (Enclave.size_bytes lkl_enclave / 1024)
    (Enclave.size_bytes twine_enclave / 1024);
  Printf.printf "Disk image [KiB, modeled]                -     247552        -        -\n";
  passed

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                  *)
(* ------------------------------------------------------------------ *)

let ablate keep =
  section "Ablation: SQLite page-cache size (the Section V-D cache effect)";
  (* the paper: the in-file sequential-read knee tracks the page cache
     (8 MiB cache -> knee near 16 MiB; doubling the cache moves it) *)
  Printf.printf "%-14s %14s %14s\n" "cache (pages)" "seqread(ms)" "randread(ms)";
  hr ();
  List.iter
    (fun cache_pages ->
      let machine = machine keep ~seed:"ablate-cache" ~epc_bytes:fig5_epc_bytes () in
      let r =
        Microbench.sweep ~machine ~blob_bytes:fig5_blob ~rand_reads:1000
          ~cache_pages ~wasm_factor:2.5 Bench_db.Twine_rt Bench_db.File
          ~sizes:[ 2000 ] ()
      in
      let pt = List.hd r.Microbench.points in
      Printf.printf "%-14d %14.3f %14.3f\n" cache_pages
        (float_of_int pt.Microbench.seq_read_ns /. 1e6)
        (float_of_int pt.Microbench.rand_read_ns /. 1e6))
    [ 16; 32; 64; 128; 256; 512 ];

  section "Ablation: IPFS node-cache size (random reads, stock variant)";
  Printf.printf "%-14s %14s %10s\n" "cache (nodes)" "randread(ms)" "ocalls";
  hr ();
  List.iter
    (fun cache_nodes ->
      let machine = machine keep ~seed:"ablate-nodes" () in
      let enclave = Enclave.create machine ~code:"ipfs-abl" () in
      let fs =
        Twine_ipfs.Protected_fs.create enclave (Twine_ipfs.Backing.memory ())
          ~cache_nodes ()
      in
      let f = Twine_ipfs.Protected_fs.open_file fs ~mode:`Trunc "abl" in
      ignore (Twine_ipfs.Protected_fs.write f (String.make (512 * 4096) 'a'));
      Twine_ipfs.Protected_fs.flush f;
      let drbg = Twine_crypto.Drbg.create ~seed:"abl" () in
      let buf = Bytes.create 64 in
      let t0 = Machine.now_ns machine in
      let ocall_charges () =
        match Twine_obs.Obs.hstat machine.Machine.obs "ipfs.ocall" with
        | Some h -> h.Twine_obs.Obs.count
        | None -> 0
      in
      let oc0 = ocall_charges () in
      for _ = 1 to 2000 do
        let pos = Twine_crypto.Drbg.int_below drbg (511 * 4096) in
        ignore (Twine_ipfs.Protected_fs.seek f ~offset:pos ~whence:`Set);
        ignore (Twine_ipfs.Protected_fs.read f buf ~off:0 ~len:64)
      done;
      Printf.printf "%-14d %14.3f %10d\n" cache_nodes
        (float_of_int (Machine.now_ns machine - t0) /. 1e6)
        (ocall_charges () - oc0);
      Twine_ipfs.Protected_fs.close f)
    [ 8; 16; 48; 128; 512 ];

  section "Ablation: interpreter vs AoT engine (PolyBench subset, wall-clock)";
  Printf.printf "%-16s %12s %12s %12s %8s\n" "kernel" "native(us)" "interp(us)"
    "aot(us)" "aot gain";
  hr ();
  List.iter
    (fun name ->
      match Twine_polybench.Kernels.find name (Twine_polybench.Kernels.all ~scale:0.7 ()) with
      | None -> ()
      | Some k ->
          let n = (Twine_polybench.Suite.run_native k).Twine_polybench.Suite.wall_ns in
          let i = (Twine_polybench.Suite.run_wasm ~engine:`Interp k).Twine_polybench.Suite.wall_ns in
          let a = (Twine_polybench.Suite.run_wasm ~engine:`Aot k).Twine_polybench.Suite.wall_ns in
          Printf.printf "%-16s %12.1f %12.1f %12.1f %7.2fx\n" name
            (float_of_int n /. 1e3) (float_of_int i /. 1e3) (float_of_int a /. 1e3)
            (float_of_int i /. float_of_int (max 1 a)))
    [ "gemm"; "atax"; "jacobi-2d"; "floyd-warshall"; "durbin"; "heat-3d" ];
  passed

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_suite _keep =
  section "Wall-clock micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let gcm_key = Twine_crypto.Gcm.of_raw (String.make 16 'k') in
  let block4k = String.make 4096 'x' in
  let gemm =
    List.hd
      (List.filter
         (fun k -> k.Twine_polybench.Kernel_dsl.name = "gemm")
         (Twine_polybench.Kernels.all ~scale:0.5 ()))
  in
  let tests =
    [ Test.make ~name:"aes-gcm-seal-4KiB"
        (Staged.stage (fun () ->
             ignore (Twine_crypto.Gcm.encrypt gcm_key ~iv:(String.make 12 'i') block4k)));
      Test.make ~name:"sha256-4KiB"
        (Staged.stage (fun () -> ignore (Twine_crypto.Sha256.digest block4k)));
      Test.make ~name:"gemm-native"
        (Staged.stage (fun () -> ignore (Twine_polybench.Suite.run_native gemm)));
      Test.make ~name:"gemm-wasm-interp"
        (Staged.stage (fun () ->
             ignore (Twine_polybench.Suite.run_wasm ~engine:`Interp gemm)));
      Test.make ~name:"gemm-wasm-aot"
        (Staged.stage (fun () ->
             ignore (Twine_polybench.Suite.run_wasm ~engine:`Aot gemm)));
      Test.make ~name:"btree-1k-inserts"
        (Staged.stage (fun () ->
             let vfs = Twine_sqldb.Svfs.memory () in
             let p = Twine_sqldb.Pager.create_or_open vfs "b" in
             Twine_sqldb.Pager.begin_txn p;
             let root = Twine_sqldb.Btree.create p Twine_sqldb.Btree.Table in
             for i = 1 to 1000 do
               Twine_sqldb.Btree.insert_table p ~root ~rowid:(Int64.of_int i) "payload"
             done;
             Twine_sqldb.Pager.commit p));
      (let db = Twine_sqldb.Db.open_db ":memory:" in
       ignore (Twine_sqldb.Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)");
       ignore (Twine_sqldb.Db.exec db "BEGIN");
       for i = 1 to 1000 do
         ignore
           (Twine_sqldb.Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" i i))
       done;
       ignore (Twine_sqldb.Db.exec db "COMMIT");
       Test.make ~name:"sql-100-point-queries"
         (Staged.stage (fun () ->
              for i = 1 to 100 do
                ignore
                  (Twine_sqldb.Db.query db
                     (Printf.sprintf "SELECT b FROM t WHERE a = %d" (((i * 7) mod 1000) + 1)))
              done)));
    ]
  in
  Printf.printf "%-26s %16s\n" "benchmark" "time/run";
  hr ();
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) () in
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let analysis =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-26s %13.0f ns\n" name est
          | _ -> Printf.printf "%-26s %16s\n" name "n/a")
        analysis)
    tests;
  passed

(* ------------------------------------------------------------------ *)
(* Telemetry report: one WASI-heavy run through the full stack          *)
(* ------------------------------------------------------------------ *)

(* A file-churning guest: 64 x 4 KiB writes through the protected FS,
   rewind, 64 reads back. Exercises every instrumented layer at once —
   WASI hostcalls, IPFS node cache + crypto, EPC paging of the guest
   linear memory (the machine's EPC is shrunk so the working set does
   not fit), and the single run ECALL with its spans. *)
let report_wat =
  {|(module
      (import "wasi_snapshot_preview1" "path_open"
        (func $path_open (param i32 i32 i32 i32 i32 i64 i64 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "fd_seek"
        (func $fd_seek (param i32 i64 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "fd_read"
        (func $fd_read (param i32 i32 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "fd_close"
        (func $fd_close (param i32) (result i32)))
      (import "wasi_snapshot_preview1" "proc_exit"
        (func $proc_exit (param i32)))
      (memory (export "memory") 4)
      (data (i32.const 16) "report.bin")
      (func (export "_start")
        (local $fd i32) (local $i i32)
        ;; open "report.bin" with CREAT in preopen fd 3
        (drop (call $path_open (i32.const 3) (i32.const 0) (i32.const 16) (i32.const 10)
                 (i32.const 1) (i64.const 0x1fffffff) (i64.const 0) (i32.const 0)
                 (i32.const 32)))
        (local.set $fd (i32.load (i32.const 32)))
        ;; iovec: a 4 KiB buffer one page up from the scratch area
        (i32.store (i32.const 40) (i32.const 65536))
        (i32.store (i32.const 44) (i32.const 4096))
        (local.set $i (i32.const 0))
        (block $wrote
          (loop $w
            (br_if $wrote (i32.ge_u (local.get $i) (i32.const 64)))
            (drop (call $fd_write (local.get $fd) (i32.const 40) (i32.const 1)
                     (i32.const 48)))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $w)))
        (drop (call $fd_seek (local.get $fd) (i64.const 0) (i32.const 0) (i32.const 56)))
        (local.set $i (i32.const 0))
        (block $read
          (loop $r
            (br_if $read (i32.ge_u (local.get $i) (i32.const 64)))
            (drop (call $fd_read (local.get $fd) (i32.const 40) (i32.const 1)
                     (i32.const 48)))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $r)))
        ;; hot loop: re-read the same 4 KiB 32 times (IPFS node-cache hits)
        (local.set $i (i32.const 0))
        (block $hot
          (loop $h
            (br_if $hot (i32.ge_u (local.get $i) (i32.const 32)))
            (drop (call $fd_seek (local.get $fd) (i64.const 0) (i32.const 0)
                     (i32.const 56)))
            (drop (call $fd_read (local.get $fd) (i32.const 40) (i32.const 1)
                     (i32.const 48)))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $h)))
        (drop (call $fd_close (local.get $fd)))
        (call $proc_exit (i32.const 0))))|}

(* The gated report workload: `bench report` prints this run, and its
   counters, fuel and ledger are the report.* gate. *)
let report_gate keep =
  let open Twine_obs in
  let machine = machine keep ~seed:"report" ~epc_bytes:(32 * 4096) () in
  let rt = Runtime.create machine in
  Runtime.deploy rt (Twine_wasm.Wat.parse report_wat);
  let r = Runtime.run rt in
  let obs = machine.Machine.obs in
  ( (machine, r),
    gated "report" machine
      ([ exact "report.exit_code" r.Runtime.exit_code;
         (* exact guest instruction count: deterministic in both engines,
            so any drift is an engine regression that time bands would
            miss *)
         exact "report.fuel" r.Runtime.fuel;
         banded "report.virtual_ns" (Machine.now_ns machine) ]
      @ List.map
          (fun k -> exact ("report." ^ k) (Obs.value obs k))
          [ "sgx.ecall"; "sgx.ocall"; "wasi.hostcall"; "epc.fault"; "epc.hit";
            "epc.evict"; "ipfs.cache.hit"; "ipfs.cache.miss" ]) )

let report keep =
  section "Telemetry: per-run cost report (WASI file churn, 128 KiB EPC)";
  let (machine, r), _ = report_gate keep in
  Printf.printf "exit code %d, simulated time %.3f ms\n" r.Runtime.exit_code
    (float_of_int (Machine.now_ns machine) /. 1e6);
  print_newline ();
  print_string
    (Twine_obs.Report.render ~ledger:(Machine.ledger machine) machine.Machine.obs);
  print_newline ();
  print_endline "-- JSON --";
  print_endline
    (Twine_obs.Report.to_json ~ledger:(Machine.ledger machine) machine.Machine.obs);
  passed

(* ------------------------------------------------------------------ *)
(* Guest profiler: hot functions + engine parity                       *)
(* ------------------------------------------------------------------ *)

(* Shadow-stack hooks for a bare [Suite.run_wasm] instance: the namer
   resolves through the module's name section (Builder records "kernel"
   there), fuel comes from the engine's own meter. *)
let profile_hooks prof (inst : Twine_wasm.Instance.t) =
  Twine_obs.Profile.set_namer prof (fun i ->
      match Twine_wasm.Ast.func_name inst.Twine_wasm.Instance.module_ i with
      | Some n -> n
      | None -> Printf.sprintf "func[%d]" i);
  {
    Twine_wasm.Instance.on_enter =
      (fun i ->
        Twine_obs.Profile.enter prof ~fuel:inst.Twine_wasm.Instance.fuel_used i);
    Twine_wasm.Instance.on_exit =
      (fun i ->
        Twine_obs.Profile.exit prof ~fuel:inst.Twine_wasm.Instance.fuel_used i);
  }

let profiled_kernel ~engine k =
  let prof = Twine_obs.Profile.create () in
  let r = Twine_polybench.Suite.run_wasm ~hooks:(profile_hooks prof) ~engine k in
  (prof, r)

let profile_folded_file = "polybench-atax.folded"
let profile_ledger_file = "polybench-atax.ledger.json"

(* fig3-style: atax under AoT inside an enclave on a shrunk EPC, with
   the profiler's shadow stack joined to the machine ledger, so charges
   raised mid-kernel (EPC faults of the linear memory) attribute to the
   guest frame that caused them. *)
let profiled_enclave_atax keep k =
  let machine = machine keep ~seed:"fig3" ~epc_bytes:fig3_epc_bytes () in
  let enclave, inst = enclave_kernel machine k in
  let prof = Twine_obs.Profile.create ~now:(fun () -> Machine.now_ns machine) () in
  Twine_obs.Profile.connect_ledger prof (Machine.ledger machine);
  inst.Twine_wasm.Instance.hooks <- Some (profile_hooks prof inst);
  Enclave.ecall enclave (fun _ -> ignore (Twine_wasm.Interp.invoke inst "kernel" []));
  machine

let write_ledger_json machine file =
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (Twine_obs.Ledger.to_string
           (Twine_obs.Ledger.snapshot (Machine.ledger machine)));
      output_char oc '\n')

let profile_section keep =
  section "Guest profiler: calling-context attribution (CCT + folded stacks)";
  let k =
    match
      Twine_polybench.Kernels.find "atax" (Twine_polybench.Kernels.all ~scale:0.4 ())
    with
    | Some k -> k
    | None -> failwith "atax kernel missing"
  in
  let prof_i, ri = profiled_kernel ~engine:`Interp k in
  let prof_a, ra = profiled_kernel ~engine:`Aot k in
  (* engine parity is this section's law: a mismatch exits 1 *)
  let laws =
    [ { Twine_obs.Audit.law = "engine fuel"; unit = " instr";
        total = ("interp", ri.Twine_polybench.Suite.fuel);
        parts = [ ("aot", ra.Twine_polybench.Suite.fuel) ] };
      Twine_obs.Profile.parity prof_i prof_a ]
  in
  Printf.printf "atax: interp %d instr, AoT %d instr — %s\n" ri.Twine_polybench.Suite.fuel
    ra.Twine_polybench.Suite.fuel
    (if Twine_obs.Audit.check laws = [] then "engines agree (per-function parity)"
     else "ENGINE MISMATCH");
  print_string (Twine_obs.Report.profile_table prof_a);
  Twine_obs.Trace_export.folded_to_file prof_a profile_folded_file;
  Printf.printf "folded stacks -> %s\n" profile_folded_file;
  (* the kernel's own frame, named through the module's name section *)
  let kernel_frame =
    List.exists
      (String.starts_with ~prefix:"kernel ")
      (String.split_on_char '\n' (Twine_obs.Trace_export.folded prof_a))
  in
  (* the WASI-heavy report workload, profiled through the runtime: shows
     hostcall time attributed to the calling guest frame *)
  let machine = machine keep ~seed:"report" ~epc_bytes:(32 * 4096) () in
  let rt = Runtime.create machine in
  Runtime.deploy rt (Twine_wasm.Wat.parse report_wat);
  let prof =
    Twine_obs.Profile.create ~now:(fun () -> Machine.now_ns machine) ()
  in
  let r = Runtime.run ~profile:prof rt in
  Printf.printf "\nreport workload (exit %d, %d instr):\n" r.Runtime.exit_code
    r.Runtime.fuel;
  print_string (Twine_obs.Report.profile_table prof);
  print_string (Twine_obs.Ledger.render (Machine.ledger machine));
  print_string
    (Twine_obs.Ledger.render_matrix
       (Twine_obs.Ledger.snapshot (Machine.ledger machine)));
  (* the enclave-hosted kernel: same attribution machinery under EPC
     pressure, exported as machine-readable ledger JSON for CI *)
  let lm = profiled_enclave_atax keep k in
  Printf.printf "\natax in-enclave (EPC %d KiB):\n" (fig3_epc_bytes / 1024);
  print_string (Twine_obs.Ledger.render ~title:"atax cycle ledger" (Machine.ledger lm));
  print_string
    (Twine_obs.Ledger.render_matrix (Twine_obs.Ledger.snapshot (Machine.ledger lm)));
  write_ledger_json lm profile_ledger_file;
  Printf.printf "ledger JSON -> %s\n" profile_ledger_file;
  { laws; failed = unless kernel_frame "folded stacks: no line for the kernel frame" }

(* ------------------------------------------------------------------ *)
(* Crash matrix: fault injection + crash-point recovery                *)
(* ------------------------------------------------------------------ *)

(* The crash section drives the full storage stack — SQL transactions
   through the pager onto protected files over an untrusted backing —
   while a crash-point log records every backing mutation. It then
   replays EVERY prefix of that log into a fresh store (plus a torn
   variant that half-applies the next write), reopens the database with
   the same machine seed (so sealed files re-derive their keys) and
   checks the recovered rows equal a transaction boundary: the last
   committed state, or — for a crash inside a commit whose writes all
   landed — the in-flight one. Anything else (a torn mix, a spurious
   Integrity_violation) fails the harness.

   A second pass arms a seeded fault plan of Delay injections over the
   same workload twice and checks the injection sequence AND the ledger
   snapshot reproduce exactly — the determinism contract that makes a
   failing fault plan a reproducible artifact. *)

let crash_seed = "crash-matrix"

let crash_workload =
  [
    "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')";
    "UPDATE t SET v = 'B' WHERE id = 2";
    "INSERT INTO t (id, v) VALUES (4, 'd')";
    "DELETE FROM t WHERE id = 1";
    "UPDATE t SET v = 'C' WHERE id = 3";
  ]

let crash_select = "SELECT id, v FROM t ORDER BY id"

(* Build the stack over [backing]; small caches so pager and node-cache
   evictions (and hence mid-transaction in-place writes) happen. *)
let crash_stack keep backing =
  let machine = machine keep ~seed:crash_seed () in
  let enclave =
    Enclave.create machine ~signer:"crash" ~heap_bytes:(2 * 1024 * 1024)
      ~code:Runtime.runtime_code ()
  in
  let fs =
    Twine_ipfs.Protected_fs.create enclave backing
      ~variant:Twine_ipfs.Protected_fs.Optimized ~cache_nodes:8 ()
  in
  let vfs = Bench_db.pfs_svfs fs in
  let db = Twine_sqldb.Db.open_db ~vfs ~cache_pages:16 ~obs:machine.Machine.obs "crash.db" in
  (machine, db)

let crash_query db =
  match Twine_sqldb.Db.query db crash_select with
  | rows -> Some rows
  | exception Twine_sqldb.Db.Sql_error _ -> None  (* table not created yet *)

let replay_backing log ~at ~torn =
  let b = Twine_ipfs.Backing.memory () in
  Twine_sim.Crashpoint.replay ~torn log ~at
    ~apply:(fun op ->
      match op with
      | Twine_sim.Crashpoint.Write { file; pos; data } ->
          Twine_ipfs.Backing.write b file ~pos data
      | Twine_sim.Crashpoint.Truncate { file; size } ->
          Twine_ipfs.Backing.truncate b file size
      | Twine_sim.Crashpoint.Delete { file } ->
          ignore (Twine_ipfs.Backing.delete b file)
      | Twine_sim.Crashpoint.Sync _ -> ());
  b

let crash_section keep =
  section "Crash matrix: every backing-op prefix, recover, verify";
  (* 1. record the workload *)
  let log = Twine_sim.Crashpoint.create () in
  let backing = Twine_ipfs.Backing.logged log (Twine_ipfs.Backing.memory ()) in
  let machine, db = crash_stack keep backing in
  ignore (Twine_sqldb.Db.exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  let snapshots = ref [ (Twine_sim.Crashpoint.length log, Some []) ] in
  List.iter
    (fun sql ->
      ignore (Twine_sqldb.Db.exec db sql);
      snapshots :=
        (Twine_sim.Crashpoint.length log, crash_query db) :: !snapshots)
    crash_workload;
  Twine_sqldb.Db.close db;
  let snapshots = List.rev !snapshots in
  let journal_ns = Twine_obs.Ledger.ns (Machine.ledger machine) "ipfs.journal" in
  let total_ns = Machine.now_ns machine in
  let n_ops = Twine_sim.Crashpoint.length log in
  Printf.printf "workload: %d transaction(s), %d backing op(s); \
                 journal overhead %.2f%% of %.3f ms\n"
    (List.length crash_workload + 1) n_ops
    (100. *. float_of_int journal_ns /. float_of_int (max 1 total_ns))
    (float_of_int total_ns /. 1e6);
  (* 2. replay every prefix (clean and torn) and verify recovery *)
  let failures = ref [] in
  let recoveries = ref 0 and max_recovery_ns = ref 0 in
  let verify ~torn at =
    match
      let b = replay_backing log ~at ~torn in
      let m2, db2 = crash_stack keep b in
      let got = crash_query db2 in
      Twine_sqldb.Db.close db2;
      (got, Twine_obs.Ledger.ns (Machine.ledger m2) "ipfs.recovery")
    with
    | exception e ->
        failures := (at, torn, "exception " ^ Printexc.to_string e) :: !failures
    | got, rec_ns ->
        if rec_ns > 0 then begin
          incr recoveries;
          if rec_ns > !max_recovery_ns then max_recovery_ns := rec_ns
        end;
        (* acceptable: the last state committed within the prefix, or the
           in-flight transaction when its commit writes all made the cut *)
        let committed =
          List.filter (fun (oplen, _) -> oplen <= at) snapshots
          |> List.rev
          |> function (_, s) :: _ -> Some s | [] -> None
        in
        let next =
          List.find_opt (fun (oplen, _) -> oplen > at) snapshots
          |> Option.map snd
        in
        let acceptable =
          (match committed with Some s -> [ s ] | None -> [ None; Some [] ])
          @ (match next with Some s -> [ s ] | None -> [])
        in
        if not (List.mem got acceptable) then
          let desc =
            match got with
            | None -> "no table"
            | Some rows -> Printf.sprintf "%d row(s)" (List.length rows)
          in
          failures := (at, torn, desc) :: !failures
  in
  for at = 0 to n_ops do
    verify ~torn:false at;
    if at < n_ops then verify ~torn:true at
  done;
  let failures = List.rev !failures in
  Printf.printf "replayed %d crash point(s) (+%d torn): %s\n" (n_ops + 1) n_ops
    (if failures = [] then "all recovered to a transaction boundary"
     else
       Printf.sprintf "%d did not recover to a transaction boundary"
         (List.length failures));
  Printf.printf "journal rollbacks: %d, worst recovery cost %.1f us\n"
    !recoveries
    (float_of_int !max_recovery_ns /. 1e3);
  if failures <> [] then
    Out_channel.with_open_text "crash-failures.txt" (fun oc ->
        Printf.fprintf oc "seed: %s\nworkload:\n" crash_seed;
        List.iter (fun sql -> Printf.fprintf oc "  %s\n" sql) crash_workload;
        List.iter
          (fun (at, torn, desc) ->
            Printf.fprintf oc "cut %d%s: recovered to NON-boundary state (%s)\n" at
              (if torn then " (torn)" else "")
              desc)
          failures);
  (* 3. fault-plan determinism: same seed => same injections, same books *)
  let plan =
    Twine_sim.Fault.plan ~seed:crash_seed
      [
        Twine_sim.Fault.rule ~prob:0.05 "backing.write"
          (Twine_sim.Fault.Delay 400);
        Twine_sim.Fault.rule ~prob:0.03 "backing.read"
          (Twine_sim.Fault.Delay 900);
      ]
  in
  let injected_run () =
    let machine, db = crash_stack keep (Twine_ipfs.Backing.memory ()) in
    Machine.arm_faults machine plan;
    ignore (Twine_sqldb.Db.exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
    List.iter (fun sql -> ignore (Twine_sqldb.Db.exec db sql)) crash_workload;
    Twine_sqldb.Db.close db;
    ( Twine_sim.Fault.injections plan,
      Twine_obs.Ledger.to_string
        (Twine_obs.Ledger.snapshot (Machine.ledger machine)),
      machine )
  in
  let inj1, books1, m1 = injected_run () in
  let inj2, books2, _ = injected_run () in
  let deterministic = inj1 = inj2 && books1 = books2 in
  if deterministic then
    Printf.printf
      "fault plan '%s': %d injection(s), identical sequence and ledger across \
       two runs\n"
      crash_seed (List.length inj1);
  List.iter
    (fun acct ->
      let ns = Twine_obs.Ledger.ns (Machine.ledger m1) acct in
      if ns > 0 then Printf.printf "  %-22s %8d ns booked under injection\n" acct ns)
    [ "fault.backing.write"; "fault.backing.read" ];
  { laws = [];
    failed =
      unless (failures = [])
        (Printf.sprintf "crash matrix: %d bad crash point(s); plan in crash-failures.txt"
           (List.length failures))
      @ unless deterministic
          (Printf.sprintf "fault plan '%s': %d vs %d injection(s), books %s" crash_seed
             (List.length inj1) (List.length inj2)
             (if books1 = books2 then "equal" else "differ")) }

(* ------------------------------------------------------------------ *)
(* serve: a multi-enclave serving fleet on one shared EPC              *)
(* ------------------------------------------------------------------ *)

(* The paper evaluates one enclave at a time; this section scales the
   same stack out. N TWINE runtimes share one machine — one virtual
   clock, one EPC, one ledger — while a run-to-completion scheduler
   replays a seeded open-loop workload, coalescing queued requests
   behind single ECALLs. Three measurements: the gated 100k-request
   operating point, throughput vs fleet size over a shrunk EPC (the
   contention cliff), and the batched-vs-unbatched ledger diff that
   shows transition amortisation. *)

let serve_requests = 100_000
let serve_sweep_requests = 20_000
let serve_cliff_epc_bytes = 288 * 4096

(* The gated objective of the streaming SLO plane: p99 under 2 ms over
   50 ms virtual windows with a 0.1% error budget. Deliberately
   violated at the default operating point (p99 is ~9 ms there), so the
   verdict, burn rate and windowed violation counts are all non-trivial
   gated signals. *)
let serve_slo_spec =
  match Twine_obs.Slo.parse "p99<2ms@50ms,budget=0.1%" with
  | Ok s -> s
  | Error msg -> failwith ("bench: bad serve SLO spec: " ^ msg)

let serve_gated_config =
  {
    Twine_serve.Serve.default_config with
    Twine_serve.Serve.requests = serve_requests;
    slo = Some serve_slo_spec;
  }

(* The fast and the slow burn-rate alerts an SLO evaluation fired. *)
let alert_counts (ev : Twine_obs.Slo.eval) =
  List.fold_left
    (fun (f, sl) a ->
      match a.Twine_obs.Slo.al_kind with `Fast -> (f + 1, sl) | `Slow -> (f, sl + 1))
    (0, 0) ev.Twine_obs.Slo.ev_alerts

(* The gated 100k-request operating point: `bench serve` prints this run. *)
let serve_gate keep =
  let open Twine_obs in
  let open Twine_serve in
  let s = Serve.run serve_gated_config in
  keep s.Serve.machine;
  let sql (e : Twine_sqldb.Sqlstat.entry) =
    let open Twine_sqldb in
    let pfx = "serve.sql." ^ e.Sqlstat.sq_label ^ "." in
    [ exact (pfx ^ "count") e.Sqlstat.sq_count;
      exact (pfx ^ "rows") e.Sqlstat.sq_rows;
      banded (pfx ^ "exec_ns") e.Sqlstat.sq_exec_ns;
      banded (pfx ^ "pager_ns") e.Sqlstat.sq_pager_ns;
      banded (pfx ^ "p99_ns") (Sqlstat.quantile_ns e 0.99) ]
  in
  let slo =
    match s.Serve.slo with
    | None -> []  (* the serve.slo.* metrics go missing: `bench check` fails *)
    | Some (_, ev) ->
        let fast, slow = alert_counts ev in
        [ exact "serve.slo.violated" (if ev.Slo.ev_violated then 1 else 0);
          banded "serve.slo.windows" ev.Slo.ev_windows;
          banded "serve.slo.violating_windows" (List.length ev.Slo.ev_violations);
          banded "serve.slo.overs" ev.Slo.ev_overs;
          banded "serve.slo.burn_x1000" ev.Slo.ev_burn_x1000;
          banded "serve.slo.fast_alerts" fast;
          banded "serve.slo.slow_alerts" slow ]
  in
  let per_enclave what l =
    List.map
      (fun (eid, n) -> banded (Printf.sprintf "serve.enclave.e%d.%s" eid what) n)
      l
  in
  ( s,
    gated "serve" s.Serve.machine
      ([ exact "serve.requests" s.Serve.requests;
         banded "serve.p50_ns" s.Serve.p50_ns;
         banded "serve.p99_ns" s.Serve.p99_ns;
         banded "serve.throughput_rps" (int_of_float s.Serve.throughput_rps);
         banded "serve.batches" s.Serve.batches;
         banded "serve.ecalls" s.Serve.ecalls;
         banded "serve.transitions_per_request_x1000"
           (int_of_float (s.Serve.transitions_per_request *. 1000.));
         banded "serve.epc_faults" s.Serve.epc_faults;
         banded "serve.epc_evictions" s.Serve.epc_evictions;
         (* per-request attribution: the residue is pinned at exactly
            zero — the conservation invariant of the ledger-slicing layer *)
         exact "serve.blame.residue_ns" (Audit.residue (Serve.attribution s));
         banded "serve.blame.attributed_ns" s.Serve.attributed_ns;
         banded "serve.blame.unattributed_ns" s.Serve.unattributed_ns;
         banded "serve.blame.cross_refaults" s.Serve.cross_refaults;
         banded "serve.sampler.samples" s.Serve.sampler_samples;
         banded "serve.sampler.queue_depth_hwm" s.Serve.queue_depth_hwm ]
      (* fleet query-stats registry: one entry per statement shape, counts
         and rows exact, cycle totals and sketch quantiles banded *)
      @ List.concat_map sql (Twine_sqldb.Sqlstat.entries s.Serve.sqlstats_fleet)
      (* the streaming SLO plane at the same operating point: the sketch
         estimates ride the exact percentiles' 2% band (their alpha is
         tighter than that), the verdict is pinned exactly *)
      @ [ banded "serve.slo.sketch_p50_ns" s.Serve.sketch_p50_ns;
          banded "serve.slo.sketch_p99_ns" s.Serve.sketch_p99_ns ]
      @ slo
      @ per_enclave "evictions" s.Serve.evictions_by_enclave
      @ per_enclave "queue_hwm" s.Serve.queue_depth_hwm_by_enclave) )

let serve_section keep =
  let open Twine_serve in
  section "serve: multi-enclave fleet, shared EPC, ECALL batching";
  let stats, _ = serve_gate keep in
  print_string (Serve.render stats);
  (* The sketch's advertised guarantee, checked against ground truth:
     retained mode computes exact nearest-rank percentiles over every
     latency, and the mergeable sketch the --stream mode relies on must
     land within alpha relative error of them (+1 ns for integer
     rounding at tiny values). *)
  let within_alpha name exact est =
    let bound =
      int_of_float (Twine_obs.Sketch.alpha *. float_of_int exact) + 1
    in
    let ok = abs (est - exact) <= bound in
    Printf.printf
      "  sketch %s %d ns vs exact %d ns (|delta| %d %s alpha bound %d)\n" name
      est exact (abs (est - exact)) (if ok then "<=" else ">") bound;
    unless ok (Printf.sprintf "sketch %s outside alpha of exact" name)
  in
  Printf.printf "\nsketch vs exact percentiles (alpha = %.5f):\n"
    Twine_obs.Sketch.alpha;
  let p50 = within_alpha "p50" stats.Serve.p50_ns stats.Serve.sketch_p50_ns in
  let p99 = within_alpha "p99" stats.Serve.p99_ns stats.Serve.sketch_p99_ns in
  print_newline ();
  print_string (Serve.render_blame ~top:5 stats);
  Printf.printf
    "(the whole fleet shares ONE machine; the audit line below counts every \
     machine this section created)\n";
  hr ();
  (* Over the p99 tail (slowest 1%), how much of the summed latency is
     queue wait vs EPC paging (fault + evict slices)? The per-request
     slicing makes this an exact ledger read, not an inference. *)
  let tail_shares (s : Serve.stats) =
    let reqs = Array.copy s.Serve.requests_log in
    Array.sort
      (fun a b -> compare (Serve.latency_ns b) (Serve.latency_ns a))
      reqs;
    let k = max 1 (Array.length reqs / 100) in
    let lat = ref 0 and queue = ref 0 and epc = ref 0 in
    for i = 0 to k - 1 do
      let r = reqs.(i) in
      lat := !lat + Serve.latency_ns r;
      queue := !queue + Serve.queue_ns r;
      epc :=
        !epc + r.Serve.breakdown.Serve.epc_fault_ns
        + r.Serve.breakdown.Serve.epc_evict_ns
    done;
    let pct v = 100. *. float_of_int v /. float_of_int (max 1 !lat) in
    (pct !queue, pct !epc)
  in
  Printf.printf
    "throughput vs fleet size (%d requests, EPC shrunk to %d pages):\n\n"
    serve_sweep_requests
    (serve_cliff_epc_bytes / 4096);
  Printf.printf "  %-9s %12s %12s %14s %10s %11s %10s %8s %8s\n" "enclaves"
    "req/s" "p50 (ns)" "p99 (ns)" "faults" "evictions" "xrefaults" "p99 q%"
    "p99 epc%";
  let cliff_runs =
    List.map
      (fun enclaves ->
        let s =
          Serve.run
            {
              Serve.default_config with
              Serve.enclaves;
              requests = serve_sweep_requests;
              epc_bytes = serve_cliff_epc_bytes;
              slo = Some serve_slo_spec;
            }
        in
        let qpct, epcpct = tail_shares s in
        Printf.printf "  %-9d %12.0f %12d %14d %10d %11d %10d %7.1f%% %7.1f%%\n"
          enclaves s.Serve.throughput_rps s.Serve.p50_ns s.Serve.p99_ns
          s.Serve.epc_faults s.Serve.epc_evictions s.Serve.cross_refaults qpct
          epcpct;
        (enclaves, s))
      [ 1; 2; 4; 8; 12; 16 ]
  in
  Printf.printf
    "\n(the drop past the EPC capacity is the paper's §V-D paging cliff, here \
     hit by the fleet's aggregate working set; the last three columns read \
     the per-request slices — cross-enclave refaults and the p99 tail's \
     queue vs EPC share)\n";
  hr ();
  (* The same cliff through the SLO plane's eyes: per fleet size, the
     whole-run burn rate against the error budget and the virtual
     instant the slow-burn alert first fires. The onset time localises
     *when* the aggregate working set outgrew the EPC — a timeline the
     end-of-run percentiles cannot give. *)
  Printf.printf "burn-rate timeline over the cliff (%s):\n\n"
    (Twine_obs.Slo.render serve_slo_spec);
  Printf.printf "  %-9s %10s %9s %11s %12s %14s %14s\n" "enclaves" "windows"
    "violating" "burn" "alerts f/s" "fast onset ms" "slow onset ms";
  List.iter
    (fun (enclaves, s) ->
      match s.Serve.slo with
      | None -> ()
      | Some (_, ev) ->
          let open Twine_obs.Slo in
          let onset = function
            | Some ns -> Printf.sprintf "%.1f" (float_of_int ns /. 1e6)
            | None -> "-"
          in
          let fast, slow = alert_counts ev in
          Printf.printf "  %-9d %10d %9d %10.1fx %12s %14s %14s\n" enclaves
            ev.ev_windows
            (List.length ev.ev_violations)
            (float_of_int ev.ev_burn_x1000 /. 1000.)
            (Printf.sprintf "%d/%d" fast slow)
            (onset ev.ev_first_fast_ns)
            (onset ev.ev_first_slow_ns))
    cliff_runs;
  Printf.printf
    "\n(burn = observed over-threshold rate / budgeted rate over the whole \
     run; onset = virtual ms at which the fast (14.4x over 1 window) or \
     slow (6x over 5 windows) burn alert first fired)\n";
  hr ();
  Printf.printf "ECALL batching (8 enclaves, %d requests):\n\n" serve_sweep_requests;
  let run_batch batch =
    Serve.run
      { Serve.default_config with Serve.requests = serve_sweep_requests; batch }
  in
  let unbatched = run_batch 1 in
  let batched = run_batch 16 in
  let per_req s = s.Serve.ecall_ns / s.Serve.requests in
  Printf.printf
    "  batch <= 1:  %6d ecalls, %5d ns/request in sgx.transition.ecall\n"
    unbatched.Serve.ecalls (per_req unbatched);
  Printf.printf
    "  batch <= 16: %6d ecalls, %5d ns/request in sgx.transition.ecall\n"
    batched.Serve.ecalls (per_req batched);
  Printf.printf "\nwhere the batched run's time moved (vs unbatched):\n";
  print_string
    (Twine_obs.Ledger.render_diff ~top:8 ~base:unbatched.Serve.ledger
       ~current:batched.Serve.ledger ());
  let runs = unbatched :: batched :: List.map snd cliff_runs in
  List.iter (fun s -> keep s.Serve.machine) runs;
  let amortised = per_req batched < per_req unbatched in
  { laws = List.map Serve.attribution (stats :: runs);
    failed = p50 @ p99 @ unless amortised "batching did not amortise transitions" }

(* ------------------------------------------------------------------ *)
(* chaos: fault-tolerant serving under seeded fault schedules          *)
(* ------------------------------------------------------------------ *)

(* The robustness counterpart of the serve section: the same fleet with
   a seeded chaos schedule armed for the serving phase. One enclave
   crash forces the full failover path — detect, teardown (EPC released
   and provenance purged), relaunch, durable-state recovery through the
   protected-FS crash path — and a capped transient entry fault
   exercises retry with backoff. The gated operating point pins
   goodput, availability, retries, sheds, failovers, recovery p99 and,
   at tolerance zero, the extended conservation law
   (requests + idle + failover = serving-phase booked time). *)

let chaos_requests = 10_000
let chaos_sweep_requests = 6_000

let chaos_parse s =
  match Twine_sim.Chaos.parse s with
  | Ok spec -> spec
  | Error msg -> failwith ("bench: bad chaos spec: " ^ msg)

let chaos_gated_spec =
  chaos_parse "seed=bench;enclave.ecall=crash@150;enclave.ecall=fail%0.002x6[2ms..]"

let chaos_gated_config =
  {
    Twine_serve.Serve.default_config with
    Twine_serve.Serve.enclaves = 4;
    requests = chaos_requests;
    chaos = Some chaos_gated_spec;
    deadline_ns = 50_000_000;
    retries = 3;
    shed_depth = 64;
  }

let chaos_availability_pct ppm = (ppm / 10_000, ppm mod 10_000)

(* The gated chaos operating point: crash + capped transient entry
   faults, deadlines, retries, depth shedding. The extended conservation
   law — requests + idle + failover = booked — is pinned at exactly
   zero; the crash rule fires once, so the failover count is exact too.
   `bench chaos` prints this run. *)
let chaos_gate keep =
  let open Twine_obs in
  let open Twine_serve in
  let s = Serve.run chaos_gated_config in
  keep s.Serve.machine;
  ( s,
    gated "chaos" s.Serve.machine
      [ exact "serve.chaos.residue_ns"
          (Audit.residue (Serve.attribution s));
        exact "serve.chaos.failovers" s.Serve.failovers;
        banded "serve.chaos.goodput_rps" (int_of_float s.Serve.goodput_rps);
        banded "serve.chaos.availability_ppm" s.Serve.availability_ppm;
        banded "serve.chaos.served" s.Serve.served;
        banded "serve.chaos.shed" s.Serve.shed;
        banded "serve.chaos.timed_out" s.Serve.timed_out;
        banded "serve.chaos.failed" s.Serve.failed;
        banded "serve.chaos.retries" s.Serve.retries;
        banded "serve.chaos.recovery_p99_ns" s.Serve.recovery_p99_ns;
        banded "serve.chaos.failover_ns" s.Serve.failover_ns;
        banded "serve.chaos.p99_ns" s.Serve.p99_ns ] )

let chaos_section keep =
  let open Twine_serve in
  section "chaos: seeded fault schedules, failover, retry, shedding";
  Printf.printf "schedule: %s\n" (Twine_sim.Chaos.render chaos_gated_spec);
  Printf.printf
    "(armed for the serving phase only; activation windows are relative to \
     the phase start)\n\n";
  let stats, _ = chaos_gate keep in
  print_string (Serve.render stats);
  print_newline ();
  print_string (Serve.render_blame ~top:5 stats);
  hr ();
  (* Replay determinism under chaos: the same (seed, config) must give
     byte-identical request-trace and SLO artifacts, and the --stream
     run (no retention) must still emit the identical SLO bytes. *)
  let again = Serve.run chaos_gated_config in
  let streamed =
    Serve.run { chaos_gated_config with Serve.retain_requests = false }
  in
  let differing =
    List.filter_map
      (fun (name, a, b) -> if a = b then None else Some (name ^ " not byte-identical"))
      [ ("replay request trace", Serve.render_requests stats,
         Serve.render_requests again);
        ("replay SLO artifact", Serve.render_slo stats, Serve.render_slo again);
        ("streamed SLO artifact", Serve.render_slo stats,
         Serve.render_slo streamed) ]
  in
  if differing = [] then
    Printf.printf
      "replay determinism: request trace and %s artifact byte-identical across \
       two retained runs and one --stream run\n"
      Serve.slo_schema;
  hr ();
  (* Availability vs fault rate x fleet size at the §V-D cliff EPC: how
     much goodput the deadline/retry/failover machinery preserves as
     transient entry faults scale up while one crash fires per run. *)
  Printf.printf
    "availability vs fault rate x fleet size (%d requests, EPC %d pages):\n\n"
    chaos_sweep_requests (serve_cliff_epc_bytes / 4096);
  Printf.printf "  %-10s %-9s %10s %12s %8s %10s %6s %9s %15s\n" "fault rate"
    "enclaves" "goodput" "avail %" "retries" "failovers" "sheds" "timeouts"
    "recovery p99";
  let sweep =
    List.concat_map
      (fun rate ->
        List.map
          (fun enclaves ->
            let spec =
              chaos_parse
                (if rate = 0. then "seed=sweep;enclave.ecall=crash@120"
                 else
                   Printf.sprintf
                     "seed=sweep;enclave.ecall=crash@120;enclave.ecall=fail%%%g"
                     rate)
            in
            let s =
              Serve.run
                {
                  chaos_gated_config with
                  Serve.enclaves;
                  requests = chaos_sweep_requests;
                  epc_bytes = serve_cliff_epc_bytes;
                  chaos = Some spec;
                }
            in
            let ai, af = chaos_availability_pct s.Serve.availability_ppm in
            Printf.printf
              "  %-10g %-9d %10.0f %7d.%04d %8d %10d %6d %9d %12d ns\n" rate
              enclaves s.Serve.goodput_rps ai af s.Serve.retries
              s.Serve.failovers s.Serve.shed s.Serve.timed_out
              s.Serve.recovery_p99_ns;
            s)
          [ 2; 4; 8 ])
      [ 0.; 0.005; 0.02 ]
  in
  Printf.printf
    "\n(every run keeps the zero-residue conservation law: requests + idle + \
     failover = serving-phase booked time; the crash rule fires once per \
     run, the transient rate scales retry pressure)\n";
  let runs = again :: streamed :: sweep in
  List.iter (fun s -> keep s.Serve.machine) runs;
  let failed_over = stats.Serve.failovers >= 1 && stats.Serve.goodput_rps > 0. in
  { laws = List.map Serve.attribution (stats :: runs);
    failed = unless failed_over "chaos run did not exercise failover" @ differing }

(* ------------------------------------------------------------------ *)
(* sql: per-operator query observability (EXPLAIN ANALYZE)             *)
(* ------------------------------------------------------------------ *)

(* The serving fleet's three query shapes (plus one secondary-index
   shape the fleet never issues) against a serve-like schema on the
   TWINE variant: a file-backed database whose page cache lives in
   enclave memory. Each statement's operator self-work plus the
   profiling overhead must sum exactly to its booked work — the
   zero-residue conservation law the baseline pins at tolerance 0. *)
let sql_shapes =
  [ ("kv_get", "SELECT v FROM kv WHERE k = 42");
    ("point", "SELECT b, c FROM t WHERE a = 123");
    ("range", "SELECT count(*), sum(b) FROM t WHERE a >= 100 AND a < 150");
    ("index", "SELECT a, c FROM t WHERE b = 7") ]

let sql_rows = 400

let sql_setup keep =
  let machine = machine keep ~seed:"sql" () in
  let t =
    Bench_db.create ~machine ~cache_pages:64 ~wasm_factor:baseline_wasm_factor
      Bench_db.Twine_rt Bench_db.File
  in
  ignore (Bench_db.exec t "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)");
  ignore
    (Bench_db.exec t
       "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)");
  ignore (Bench_db.exec t "CREATE INDEX t_b ON t (b)");
  for i = 0 to sql_rows - 1 do
    ignore
      (Bench_db.exec t (Printf.sprintf "INSERT INTO kv VALUES (%d, 'v%04d')" i i));
    ignore
      (Bench_db.exec t
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 'c%04d')" i (i mod 20) i))
  done;
  ignore (Bench_db.exec t "ANALYZE");
  (* render the cycles column of EXPLAIN ANALYZE at this variant's rate *)
  Twine_sqldb.Db.set_ns_per_work t.Bench_db.db
    (t.Bench_db.ns_per_work *. t.Bench_db.wasm_factor);
  t

let sql_section keep =
  let open Twine_sqldb in
  section "sql: per-operator query observability (EXPLAIN ANALYZE)";
  let t = sql_setup keep in
  let laws, failed =
    List.partition_map
      (fun (name, sql) ->
        Printf.printf "\n%s: EXPLAIN ANALYZE %s\n" name sql;
        let r = Bench_db.exec t ("EXPLAIN ANALYZE " ^ sql) in
        List.iter
          (function
            | [ Value.Text line ] -> Printf.printf "  %s\n" line
            | _ -> ())
          r.Db.rows;
        match Db.last_profile t.Bench_db.db with
        | Some p ->
            let a = Db.audit p in
            Printf.printf "  %s\n" (Twine_obs.Audit.render a);
            Either.Left a
        | None -> Either.Right (name ^ ": no profile recorded"))
      sql_shapes
  in
  hr ();
  let obs = Bench_db.obs t in
  Printf.printf
    "access-path census (sqldb.plan.*): full_scan=%d rowid_range=%d \
     index_range=%d fallback=%d\n"
    (Twine_obs.Obs.value obs "sqldb.plan.full_scan")
    (Twine_obs.Obs.value obs "sqldb.plan.rowid_range")
    (Twine_obs.Obs.value obs "sqldb.plan.index_range")
    (Twine_obs.Obs.value obs "sqldb.plan.fallback");
  Printf.printf "\nfingerprint normalization (query-stats registry keys):\n";
  List.iter
    (fun (_, sql) ->
      Printf.printf "  %s\n    -> %s\n" sql (Sqlstat.fingerprint sql))
    sql_shapes;
  Bench_db.close t;
  { laws; failed }

(* The serve shapes as plain statements, every operator pinned exactly;
   a shape with no profile leaves its metrics missing from the run. *)
let sql_gate () =
  let open Twine_obs in
  let open Twine_sqldb in
  let t = sql_setup ignore in
  let shapes =
    List.filter_map
      (fun (name, sql) ->
        let r = Bench_db.exec t sql in
        Option.map
          (fun p ->
            let pfx = "sqldb." ^ name ^ "." in
            ( Db.audit p,
              [ exact (pfx ^ "rows") (List.length r.Db.rows);
                exact (pfx ^ "total_work") p.Db.pr_total_work;
                exact (pfx ^ "overhead_work") p.Db.pr_overhead_work ]
              @ List.concat_map
                  (fun (o : Db.opstat) ->
                    let opfx = Printf.sprintf "%sop.%s." pfx o.Db.os_name in
                    [ exact (opfx ^ "work") o.Db.os_work;
                      exact (opfx ^ "rows_out") o.Db.os_rows_out ])
                  p.Db.pr_ops ))
          (Db.last_profile t.Bench_db.db))
      sql_shapes
  in
  let residue = List.fold_left (fun acc (a, _) -> acc + abs (Audit.residue a)) 0 shapes in
  let obs = Bench_db.obs t in
  let g =
    gated "sql" t.Bench_db.machine
      (List.concat_map snd shapes
      @ exact "sqldb.op.residue_ns" residue
        :: List.map
             (fun k -> exact ("sqldb.plan." ^ k) (Obs.value obs ("sqldb.plan." ^ k)))
             [ "full_scan"; "rowid_range"; "index_range"; "fallback" ])
  in
  Bench_db.close t;
  g

(* ------------------------------------------------------------------ *)
(* The gate-only workloads and the list of every gate                  *)
(* ------------------------------------------------------------------ *)

(* SQLite micro-benchmark sweep, TWINE variant on a file DB *)
let micro_gate () =
  let machine = Machine.create ~seed:"baseline" () in
  let s =
    Microbench.sweep ~machine ~wasm_factor:baseline_wasm_factor ~rand_reads:300
      ~cache_pages:64 Bench_db.Twine_rt Bench_db.File ~sizes:[ 500; 1500 ] ()
  in
  gated "micro" machine
    (List.concat_map
       (fun p ->
         let pfx = Printf.sprintf "micro.twine.file.%d." p.Microbench.records in
         [ banded (pfx ^ "insert_ns") p.Microbench.insert_ns;
           banded (pfx ^ "seq_read_ns") p.Microbench.seq_read_ns;
           banded (pfx ^ "rand_read_ns") p.Microbench.rand_read_ns ])
       s.Microbench.points)

(* protected-FS breakdown, stock vs optimised (§V-F) *)
let ipfs_gate () =
  let metrics (name, variant) =
    let b =
      Microbench.ipfs_breakdown ~records:800 ~blob_bytes:256 ~samples:500
        ~wasm_factor:baseline_wasm_factor variant
    in
    let v part = banded ("ipfs." ^ name ^ "." ^ part) in
    [ v "total_ns" b.Microbench.total_ns; v "memset_ns" b.Microbench.memset_ns;
      v "ocall_ns" b.Microbench.ocall_ns; v "read_ns" b.Microbench.read_ns;
      v "sqlite_ns" b.Microbench.sqlite_ns ]
  in
  { group = "ipfs"; snap = None;
    metrics =
      List.concat_map metrics
        [ ("stock", Twine_ipfs.Protected_fs.Stock);
          ("optimized", Twine_ipfs.Protected_fs.Optimized) ] }

(* PolyBench wall-clock spot checks (informational only) *)
let polybench_gate () =
  let open Twine_polybench in
  let metrics k =
    let n = Suite.run_native k in
    let w = Suite.run_wasm ~engine:`Aot k in
    let pfx = "polybench." ^ k.Kernel_dsl.name ^ "." in
    [ Twine_obs.Baseline.v (pfx ^ "native_wall_ns") n.Suite.wall_ns;
      Twine_obs.Baseline.v (pfx ^ "aot_wall_ns") w.Suite.wall_ns;
      (* exact: instruction totals are deterministic and engine-equal *)
      exact (pfx ^ "fuel") w.Suite.fuel ]
  in
  { group = "polybench"; snap = None;
    metrics =
      List.concat_map metrics
        (List.filter
           (fun k -> List.mem k.Kernel_dsl.name [ "atax"; "trisolv" ])
           (Kernels.all ~scale:0.4 ())) }

(* Every gate, in baseline order. *)
let gates =
  [ (fun () -> snd (report_gate ignore)); micro_gate;
    (fun () -> snd (serve_gate ignore)); (fun () -> snd (chaos_gate ignore));
    sql_gate; ipfs_gate; polybench_gate ]

let run_gates () = List.map (fun g -> g ()) gates

let baseline_of gates =
  Twine_obs.Baseline.create
    ~meta:
      [ ("generator", "bench/main.exe json");
        ("wasm_factor", string_of_float baseline_wasm_factor);
        ("note", "virtual-clock metrics; regenerate with: dune exec bench/main.exe -- json") ]
    (List.concat_map (fun g -> g.metrics) gates)

let default_baseline_file = "BENCH_twine.json"

let load_baseline ~cmd file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> (
      match Twine_obs.Baseline.of_string s with
      | Ok b -> b
      | Error msg ->
          Printf.eprintf "bench %s: %s: %s\n" cmd file msg;
          exit 2)
  | exception Sys_error msg ->
      Printf.eprintf "bench %s: %s\n" cmd msg;
      exit 2

(* Where a gate's virtual time moved against the committed baseline,
   ranked by account. The base snapshot is rebuilt from the baseline's
   flat [ledger.<group>.*] metrics, so no second JSON artifact is needed;
   [None] when it holds no account of the group. *)
let drift (baseline : Twine_obs.Baseline.t) group current =
  let open Twine_obs in
  let pfx = "ledger." ^ group ^ "." in
  let n = String.length pfx in
  let own =
    List.filter_map
      (fun (path, (m : Baseline.metric)) ->
        if String.length path > n && String.starts_with ~prefix:pfx path then
          Some (String.sub path n (String.length path - n), int_of_float m.Baseline.value)
        else None)
      baseline.Baseline.metrics
  in
  let num name fallback = Option.value (List.assoc_opt name own) ~default:fallback in
  match List.filter (fun (name, _) -> name <> "residue_ns" && name <> "elapsed_ns") own with
  | [] -> None
  | accounts ->
      let booked = List.fold_left (fun a (_, ns) -> a + ns) 0 accounts in
      let base =
        {
          Ledger.elapsed_ns = num "elapsed_ns" (booked + num "residue_ns" 0);
          booked_ns = booked;
          accounts = List.map (fun (name, ns) -> (name, { Ledger.ns; events = 0 })) accounts;
          matrix = [];
        }
      in
      Some (Ledger.render_diff ~base ~current ())

let bench_json file =
  let b = baseline_of (run_gates ()) in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Twine_obs.Baseline.to_string b);
      output_char oc '\n');
  Printf.eprintf "bench: wrote %d metric(s) to %s\n"
    (List.length b.Twine_obs.Baseline.metrics) file

(* `bench diff [BASELINE]`: ranked attribution of where the current
   tree's virtual time moved relative to the committed baseline — by
   account, then by hot guest function within the top accounts. Exits 2
   when the baseline cannot attribute a gate that has a ledger. *)
let bench_diff file =
  let baseline = load_baseline ~cmd:"diff" file in
  let unattributed =
    List.filter_map
      (fun g ->
        Option.bind g.snap (fun current ->
            Printf.printf "\n-- %s workload vs %s --\n" g.group file;
            match drift baseline g.group current with
            | Some d ->
                print_string d;
                None
            | None ->
                Printf.printf
                  "no ledger.%s.* metrics in the baseline; regenerate it with `bench json`\n"
                  g.group;
                Some g.group))
      (run_gates ())
  in
  if unattributed <> [] then exit 2

let bench_check file =
  let open Twine_obs in
  let baseline = load_baseline ~cmd:"check" file in
  let gates = run_gates () in
  let verdicts = Baseline.check ~baseline ~current:(baseline_of gates) in
  print_string (Baseline.render verdicts);
  match List.filter (fun v -> not v.Baseline.ok) verdicts with
  | [] ->
      Printf.printf "\nbench check: %d metric(s) within tolerance of %s\n"
        (List.length verdicts) file
  | failed ->
      Printf.printf "\nbench check: REGRESSION: %d of %d metric(s) out of band:\n"
        (List.length failed) (List.length verdicts);
      List.iter (fun v -> Printf.printf "  - %s\n" v.Baseline.path) failed;
      (* Explain each failure from the ledger of the gate that made it:
         the ranked account attribution of that workload's delta. *)
      let made_by v g = List.mem_assoc v.Baseline.path g.metrics in
      let blamed =
        List.filter
          (fun g -> g.snap <> None && List.exists (fun v -> made_by v g) failed)
          gates
      in
      List.iter
        (fun g ->
          match Option.bind g.snap (drift baseline g.group) with
          | Some d ->
              Printf.printf "\nwhere the %s workload's time moved:\n" g.group;
              print_string d
          | None ->
              Printf.printf
                "\n(no ledger.%s.* metrics in the baseline to attribute the %s drift)\n"
                g.group g.group)
        blamed;
      List.iter
        (fun v ->
          if not (List.exists (made_by v) blamed) then
            Printf.printf "(no ledger attribution for %s)\n" v.Baseline.path)
        failed;
      exit 1

(* ------------------------------------------------------------------ *)

(* Every section, in the order a full run prints them. A name with a
   '/' answers to each of its parts. *)
let sections =
  [ ("fig3", fig3); ("fig4", fig4); ("fig5/table2", fig5_table2); ("fig6", fig6);
    ("fig7", fig7); ("table3", table3); ("ablate", ablate); ("micro", bechamel_suite);
    ("report", report); ("profile", profile_section); ("crash", crash_section);
    ("serve", serve_section); ("chaos", chaos_section); ("sql", sql_section) ]

let () =
  let arg i = if Array.length Sys.argv > i then Some Sys.argv.(i) else None in
  let baseline_file = Option.value (arg 2) ~default:default_baseline_file in
  let names (name, _) = String.split_on_char '/' name in
  match arg 1 with
  | Some "json" -> bench_json baseline_file
  | Some "check" -> bench_check baseline_file
  | Some "diff" -> bench_diff baseline_file
  | only -> (
      let wanted s = Option.fold only ~none:true ~some:(fun o -> List.mem o (names s)) in
      match List.filter wanted sections with
      | [] ->
          Printf.eprintf
            "bench: unknown section %S; valid sections: %s (or json|check|diff \
             [BASELINE])\n"
            (Option.get only)
            (String.concat " " (List.concat_map names sections));
          exit 2
      | chosen ->
          Printf.printf "TWINE reproduction bench harness (simulated SGX; see DESIGN.md)\n";
          List.iter (fun (name, run) -> audited name run) chosen;
          Printf.printf "\ndone.\n")
