(* Telemetry registry (lib/obs) and the accounting regressions it was
   built to catch: unaccounted C-string scans and the per-run enclave
   heap leak. *)

open Twine_obs
open Twine_sgx

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* name-keyed shorthands over the registry's handles *)
let inc obs name = Obs.inc (Obs.counter obs name)
let add obs name n = Obs.add (Obs.counter obs name) n
let observe obs name v = Obs.observe (Obs.histogram obs name) v

(* --- registry --- *)

let test_counters () =
  let obs = Obs.create () in
  Alcotest.(check int) "absent counter reads 0" 0 (Obs.value obs "x");
  inc obs "x";
  inc obs "x";
  add obs "y" 40;
  add obs "y" 2;
  Alcotest.(check int) "inc twice" 2 (Obs.value obs "x");
  Alcotest.(check int) "add accumulates" 42 (Obs.value obs "y");
  Alcotest.(check (list (pair string int)))
    "sorted snapshot"
    [ ("x", 2); ("y", 42) ]
    (Obs.counters obs);
  Obs.reset obs;
  Alcotest.(check int) "reset clears" 0 (Obs.value obs "x")

(* The Serve.run pattern: a layer resolves its handles at setup, then
   the books restart. The handles still count after the reset, and the
   snapshots list only what was touched since. *)
let test_handles_survive_reset () =
  let obs = Obs.create () and l = Ledger.create () in
  let hit = Obs.counter obs "epc.hit" and idle = Obs.counter obs "idle" in
  let cost = Obs.histogram obs "cost" and acct = Ledger.account l "work" in
  Obs.inc hit;
  Obs.inc idle;
  Obs.observe cost 7;
  Ledger.book l acct 10;
  Ledger.book l (Ledger.account l "setup") 3;
  Obs.reset obs;
  Ledger.reset l;
  Obs.inc hit;
  Obs.observe cost 4;
  Ledger.book l acct 20;
  Alcotest.(check (list (pair string int))) "counters since reset" [ ("epc.hit", 1) ]
    (Obs.counters obs);
  Alcotest.(check int) "untouched reads 0" 0 (Obs.value obs "idle");
  Alcotest.(check (list (pair string int))) "histograms since reset" [ ("cost", 1) ]
    (List.map (fun (n, (h : Obs.hstat)) -> (n, h.count)) (Obs.histograms obs));
  Alcotest.(check (option int)) "quantile since reset" (Some 4) (Obs.quantile obs "cost" 0.5);
  Alcotest.(check (list (pair string int))) "accounts since reset" [ ("work", 20) ]
    (List.map (fun (n, (e : Ledger.entry)) -> (n, e.ns)) (Ledger.accounts l));
  Alcotest.(check int) "total since reset" 20 (Ledger.total l);
  Alcotest.(check int) "balance since reset" 20 (Ledger.balance acct);
  Alcotest.(check bool) "resolving lists nothing" true
    (ignore (Obs.counter obs "fresh"); ignore (Ledger.account l "fresh");
     Obs.value obs "fresh" = 0 && List.length (Obs.counters obs) = 1
     && List.length (Ledger.accounts l) = 1)

let test_histograms () =
  let obs = Obs.create () in
  Alcotest.(check bool) "absent histogram" true (Obs.hstat obs "h" = None);
  List.iter (observe obs "h") [ 5; 1; 9 ];
  match Obs.hstat obs "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 3 h.Obs.count;
      Alcotest.(check int) "sum" 15 h.Obs.sum;
      Alcotest.(check int) "min" 1 h.Obs.min;
      Alcotest.(check int) "max" 9 h.Obs.max

let test_quantile_edges () =
  let obs = Obs.create () in
  Alcotest.(check (option int)) "missing histogram" None (Obs.quantile obs "q" 0.5);
  (* empty name, single sample: every quantile is that sample *)
  observe obs "one" 37;
  List.iter
    (fun q ->
      Alcotest.(check (option int))
        (Printf.sprintf "single sample at q=%.2f" q)
        (Some 37) (Obs.quantile obs "one" q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* extremes clamp to observed min/max, not bucket bounds *)
  List.iter (observe obs "two") [ 3; 900 ];
  Alcotest.(check (option int)) "q=0 is the min" (Some 3)
    (Obs.quantile obs "two" 0.0);
  Alcotest.(check (option int)) "q=1 is the max" (Some 900)
    (Obs.quantile obs "two" 1.0);
  (* a lone sample far above the exact range is still its own estimate *)
  let obs2 = Obs.create () in
  observe obs2 "b" 4096;
  Alcotest.(check (option int)) "boundary value round-trips" (Some 4096)
    (Obs.quantile obs2 "b" 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Obs.quantile: q outside [0,1]") (fun () ->
      ignore (Obs.quantile obs "one" 1.5));
  (* a rejected sample records nothing, not even an empty histogram *)
  (match observe obs "neg" (-1) with
  | () -> Alcotest.fail "negative sample accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "negative sample left no histogram" true
    (Obs.hstat obs "neg" = None)

(* The nearest-rank order statistic of [samples] at [q]. *)
let exact_quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let r = int_of_float (ceil ((q *. float_of_int n) -. 1e-9)) in
  a.(max 1 (min n r) - 1)

let test_quantile_within_alpha () =
  let check name samples q =
    let obs = Obs.create () in
    List.iter (observe obs name) samples;
    let exact = exact_quantile samples q in
    match Obs.quantile obs name q with
    | None -> Alcotest.fail "histogram missing"
    | Some v ->
        Alcotest.(check bool)
          (Printf.sprintf "%s q=%.2f: %d within alpha of %d" name q v exact)
          true
          (abs (v - exact) <= int_of_float (Sketch.alpha *. float_of_int exact) + 1)
  in
  (* one sample at every value of the binade [512, 1024) *)
  let uniform = List.init 512 (fun i -> 512 + i) in
  List.iter (check "uniform" uniform) [ 0.25; 0.5; 0.99 ];
  (* two clusters a binade apart: the median is the top of the low
     cluster, 2048, and must not be smeared across the binade toward
     the high one *)
  let clusters = List.init 129 (fun _ -> 2048) @ List.init 129 (fun _ -> 4128) in
  List.iter (check "clusters" clusters) [ 0.5; 0.99 ];
  (* a long tail spanning seven decades *)
  let tail = List.init 300 (fun i -> int_of_float (1.06 ** float_of_int i)) in
  List.iter (check "tail" tail) [ 0.5; 0.9; 0.99 ]

let test_quantile_rank_rounding () =
  (* 0.99 *. 100. = 99.00000000000001: the nearest-rank index must stay
     99, not spill into the single outlier at rank 100 *)
  let obs = Obs.create () in
  for _ = 1 to 99 do observe obs "lat" 10 done;
  observe obs "lat" 1_000_000;
  Alcotest.(check (option int)) "p99 of 99x10 + 1 outlier is 10" (Some 10)
    (Obs.quantile obs "lat" 0.99);
  Alcotest.(check (option int)) "p100 is the outlier" (Some 1_000_000)
    (Obs.quantile obs "lat" 1.0)

(* Spans on a hand-cranked virtual clock: the parent's self time must
   exclude the child's. *)
let test_span_nesting () =
  let t = ref 0 in
  let obs = Obs.create ~now:(fun () -> !t) () in
  let advance n = t := !t + n in
  let result =
    Obs.in_span obs "outer" (fun () ->
        advance 10;
        Alcotest.(check int) "depth inside outer" 1 (Obs.depth obs);
        Obs.in_span obs "inner" (fun () -> advance 5);
        advance 3;
        "ok")
  in
  Alcotest.(check string) "thunk result returned" "ok" result;
  Alcotest.(check int) "depth back to 0" 0 (Obs.depth obs);
  (match Obs.sstat obs "outer" with
  | None -> Alcotest.fail "outer span missing"
  | Some s ->
      Alcotest.(check int) "outer calls" 1 s.Obs.calls;
      Alcotest.(check int) "outer total" 18 s.Obs.total_ns;
      Alcotest.(check int) "outer self excludes inner" 13 s.Obs.self_ns);
  match Obs.sstat obs "inner" with
  | None -> Alcotest.fail "inner span missing"
  | Some s ->
      Alcotest.(check int) "inner total" 5 s.Obs.total_ns;
      Alcotest.(check int) "inner self" 5 s.Obs.self_ns

let test_span_exception_safe () =
  let t = ref 0 in
  let obs = Obs.create ~now:(fun () -> !t) () in
  (try
     Obs.in_span obs "boom" (fun () ->
         t := !t + 7;
         failwith "inner failure")
   with Failure _ -> ());
  Alcotest.(check int) "span stack unwound" 0 (Obs.depth obs);
  match Obs.sstat obs "boom" with
  | None -> Alcotest.fail "span not recorded"
  | Some s -> Alcotest.(check int) "time still attributed" 7 s.Obs.total_ns

(* --- report rendering --- *)

let test_report_render () =
  let obs = Obs.create () in
  add obs "epc.hit" 3;
  add obs "epc.fault" 1;
  add obs "ipfs.cache.miss" 8;
  observe obs "sgx.launch" 2_000_000;
  Obs.in_span obs "twine.main" (fun () -> ());
  let r = Report.render obs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "report contains %S" needle)
        true
        (contains r needle))
    [ "epc.hit"; "epc.hit_rate"; "75.0%"; "ipfs.cache.hit_rate"; "0.0%";
      "sgx.launch"; "twine.main"; "-- spans --" ]

let test_report_json () =
  let obs = Obs.create () in
  add obs "wasi.hostcall" 5;
  observe obs "sgx.epc_fault" 10526;
  Obs.in_span obs "twine.main" (fun () -> ());
  let j = Report.to_json obs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %S" needle)
        true
        (contains j needle))
    [ {|"counters":{"wasi.hostcall":5}|};
      {|"sgx.epc_fault":{"count":1,"sum_ns":10526,"min_ns":10526,"max_ns":10526}|};
      {|"twine.main":{"calls":1,"total_ns":0,"self_ns":0}|} ]

(* --- baseline JSON: round-trip and verdict rendering --- *)

let test_baseline_round_trip () =
  let b =
    Baseline.create
      ~meta:[ ("generator", "test"); ("note", "round trip") ]
      [ Baseline.v ~tol:0.02 "report.virtual_ns" 12345;
        Baseline.v ~tol:0.0 "report.fuel" 2647;
        Baseline.vf "polybench.atax.native_wall_ns" 98765.0 ]
  in
  match Baseline.of_string (Baseline.to_string b) with
  | Error msg -> Alcotest.fail msg
  | Ok b' ->
      Alcotest.(check bool) "meta survives" true (b.Baseline.meta = b'.Baseline.meta);
      Alcotest.(check int) "metric count" 3 (List.length b'.Baseline.metrics);
      List.iter2
        (fun (p, (m : Baseline.metric)) (p', (m' : Baseline.metric)) ->
          Alcotest.(check string) "path order preserved" p p';
          Alcotest.(check (float 0.0)) (p ^ " value") m.Baseline.value m'.Baseline.value;
          Alcotest.(check bool) (p ^ " tol survives (incl. None)") true
            (m.Baseline.tol = m'.Baseline.tol))
        b.Baseline.metrics b'.Baseline.metrics

let test_baseline_verdicts () =
  let baseline =
    Baseline.create
      [ Baseline.v ~tol:0.1 "guarded" 100;
        Baseline.v "informational" 100;
        Baseline.v ~tol:0.0 "vanished" 7 ]
  in
  let current =
    Baseline.create
      [ Baseline.v ~tol:0.1 "guarded" 105;
        (* informational drifts wildly but must not gate *)
        Baseline.v "informational" 900 ]
  in
  let vs = Baseline.check ~baseline ~current in
  let find p = List.find (fun v -> v.Baseline.path = p) vs in
  Alcotest.(check bool) "in-band metric ok" true (find "guarded").Baseline.ok;
  Alcotest.(check bool) "informational never gates" true
    (find "informational").Baseline.ok;
  Alcotest.(check bool) "missing metric fails" false (find "vanished").Baseline.ok;
  Alcotest.(check bool) "missing metric has no got" true
    ((find "vanished").Baseline.got = None);
  let table = Baseline.render vs in
  Alcotest.(check bool) "informational renders as info, not ok" true
    (contains table "info");
  Alcotest.(check bool) "missing renders FAIL" true (contains table "FAIL");
  Alcotest.(check bool) "missing shows as missing" true (contains table "missing")

(* A malformed band must be an error, never "no tolerance", which
   would silently ungate its metric. *)
let test_baseline_rejects_malformed () =
  let parse metric =
    Baseline.of_string
      (Printf.sprintf {|{"schema":%S,"meta":{},"metrics":{"m":%s}}|}
         Baseline.schema metric)
  in
  let tol_of metric =
    match parse metric with
    | Ok { Baseline.metrics = [ ("m", m) ]; _ } -> Some m.Baseline.tol
    | _ -> None
  in
  Alcotest.(check (option (option (float 0.0)))) "null tol is informational"
    (Some None) (tol_of {|{"value":1,"tol":null}|});
  Alcotest.(check (option (option (float 0.0)))) "zero tol is exact"
    (Some (Some 0.0)) (tol_of {|{"value":1,"tol":0}|});
  List.iter
    (fun metric ->
      Alcotest.(check bool) (metric ^ " is rejected") true
        (Result.is_error (parse metric)))
    [ {|{"value":1,"tol":"0.02"}|}; {|{"value":1,"tol":-0.5}|};
      {|{"value":1,"tol":1e999}|}; {|{"value":1,"tol":true}|};
      {|{"value":1}|}; {|{"value":"1","tol":0}|}; {|{"value":1e999,"tol":0}|};
      {|{"tol":0}|} ]

(* Golden shape check: the report JSON parses back and exposes exactly
   the members downstream tooling keys on, including the ledger. *)
let test_report_json_shape () =
  let machine = Machine.create ~seed:"obs-shape" () in
  let obs = machine.Machine.obs in
  Machine.charge machine (Machine.meter machine ~account:"sgx.launch" "sgx.launch") 1000;
  Machine.charge machine (Machine.meter machine ~account:"mee.copy" "sgx.copy_in") 500;
  inc obs "epc.hit";
  Obs.in_span obs "twine.main" (fun () -> ());
  let j = Report.to_json ~ledger:(Machine.ledger machine) obs in
  match Json.parse j with
  | Error msg -> Alcotest.fail ("report JSON does not parse: " ^ msg)
  | Ok json ->
      let member_exn path j =
        match Json.member path j with
        | Some v -> v
        | None -> Alcotest.fail (Printf.sprintf "missing member %S" path)
      in
      List.iter
        (fun m -> ignore (member_exn m json))
        [ "counters"; "histograms"; "spans"; "ledger" ];
      let ledger = member_exn "ledger" json in
      Alcotest.(check (option string)) "ledger schema"
        (Some Ledger.schema)
        (Json.to_str (member_exn "schema" ledger));
      Alcotest.(check (option (float 0.0))) "booked total in JSON" (Some 1500.)
        (Json.to_float (member_exn "booked_ns" ledger));
      let copy = member_exn "mee.copy" (member_exn "accounts" ledger) in
      Alcotest.(check (option (float 0.0))) "account ns" (Some 500.)
        (Json.to_float (member_exn "ns" copy));
      Alcotest.(check (option (float 0.0))) "histogram sum round-trips" (Some 500.)
        (Json.to_float
           (member_exn "sum_ns" (member_exn "sgx.copy_in" (member_exn "histograms" json))))

(* --- regression: C-string loads feed the access hook / EPC --- *)

let test_cstring_epc_pressure () =
  let machine = Machine.create ~seed:"obs-cstr" ~epc_bytes:(8 * 4096) () in
  let enclave = Enclave.create machine ~code:"cstr" () in
  let mem = Twine_wasm.Memory.create { Twine_wasm.Types.min = 1; max = Some 1 } in
  (* a string spanning four 4 KiB EPC pages, written before the hook *)
  Twine_wasm.Memory.store_bytes mem 0 (String.make 16000 'a');
  let base = Enclave.reserve enclave (Twine_wasm.Memory.size_bytes mem) in
  Twine.Runtime.install_memory_hook enclave ~base mem;
  let faults0 = Epc.faults machine.Machine.epc in
  let s = Twine_wasm.Memory.load_cstring mem 0 in
  Alcotest.(check int) "string length" 16000 (String.length s);
  let faults = Epc.faults machine.Machine.epc - faults0 in
  Alcotest.(check bool)
    (Printf.sprintf "cstring scan faults pages in (%d faults)" faults)
    true (faults >= 4)

let test_cstring_out_of_bounds () =
  let mem = Twine_wasm.Memory.create { Twine_wasm.Types.min = 1; max = Some 1 } in
  (* no NUL anywhere: the scan must trap, not run off the end *)
  Twine_wasm.Memory.store_bytes mem 0
    (String.make (Twine_wasm.Memory.size_bytes mem) 'x');
  Alcotest.check_raises "unterminated string traps"
    (Twine_wasm.Values.Trap "unterminated string") (fun () ->
      ignore (Twine_wasm.Memory.load_cstring mem 0))

(* --- regression: repeated runs do not leak enclave heap --- *)

let hello_wat =
  {|(module
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (memory (export "memory") 1)
      (data (i32.const 16) "hi\n")
      (func (export "_start")
        (i32.store (i32.const 0) (i32.const 16))
        (i32.store (i32.const 4) (i32.const 3))
        (drop (call $fd_write (i32.const 1) (i32.const 0) (i32.const 1) (i32.const 8)))))|}

let test_run_does_not_leak_heap () =
  let machine = Machine.create ~seed:"obs-leak" () in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse hello_wat);
  let run () = ignore (Twine.Runtime.run rt) in
  run ();
  let size1 = Enclave.size_bytes (Twine.Runtime.enclave rt) in
  for _ = 1 to 5 do run () done;
  let size2 = Enclave.size_bytes (Twine.Runtime.enclave rt) in
  Alcotest.(check int) "enclave size stable across runs" size1 size2

let test_run_counts_surface () =
  let machine = Machine.create ~seed:"obs-counts" () in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse hello_wat);
  ignore (Twine.Runtime.run rt);
  let obs = machine.Machine.obs in
  Alcotest.(check bool) "ecalls counted" true (Obs.value obs "sgx.ecall" >= 2);
  Alcotest.(check bool) "wasi dispatch counted" true
    (Obs.value obs "wasi.hostcall" >= 1);
  Alcotest.(check int) "fd_write counted" 1 (Obs.value obs "wasi.fd_write");
  Alcotest.(check bool) "run span recorded" true
    (Obs.sstat obs "twine.main" <> None)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "handles survive reset" `Quick test_handles_survive_reset;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
          Alcotest.test_case "quantile within alpha" `Quick
            test_quantile_within_alpha;
          Alcotest.test_case "quantile rank rounding" `Quick
            test_quantile_rank_rounding;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_render;
          Alcotest.test_case "json" `Quick test_report_json;
          Alcotest.test_case "json shape (golden)" `Quick test_report_json_shape;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round trip" `Quick test_baseline_round_trip;
          Alcotest.test_case "verdicts" `Quick test_baseline_verdicts;
          Alcotest.test_case "rejects malformed metrics" `Quick
            test_baseline_rejects_malformed;
        ] );
      ( "accounting regressions",
        [
          Alcotest.test_case "cstring EPC pressure" `Quick test_cstring_epc_pressure;
          Alcotest.test_case "cstring bounds" `Quick test_cstring_out_of_bounds;
          Alcotest.test_case "no heap leak across runs" `Quick test_run_does_not_leak_heap;
          Alcotest.test_case "run telemetry surfaces" `Quick test_run_counts_surface;
        ] );
    ]
