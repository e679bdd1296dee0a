(* Telemetry registry (lib/obs) and the accounting regressions it was
   built to catch: unaccounted C-string scans and the per-run enclave
   heap leak. *)

open Twine_obs
open Twine_sgx

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* name-keyed shorthands over the registry's and the ledger's handles *)
let inc obs name = Obs.inc (Obs.counter obs name)
let add obs name n = Obs.add (Obs.counter obs name) n
let book l name ns = Ledger.book l (Ledger.account l name) ns

let quantile l name q =
  Option.bind (Ledger.distribution l name) (fun d -> Sketch.quantile d q)

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
  let acct = Ledger.account l "work" in
  Obs.inc hit;
  Obs.inc idle;
  Ledger.book l acct 10;
  Ledger.book l acct 7;
  book l "setup" 3;
  Obs.reset obs;
  Ledger.reset l;
  Obs.inc hit;
  Ledger.book l acct 20;
  Alcotest.(check (list (pair string int))) "counters since reset" [ ("epc.hit", 1) ]
    (Obs.counters obs);
  Alcotest.(check int) "untouched reads 0" 0 (Obs.value obs "idle");
  Alcotest.(check (option int)) "distribution since reset" (Some 1)
    (Option.map Sketch.count (Ledger.distribution l "work"));
  Alcotest.(check (option int)) "quantile since reset" (Some 20) (quantile l "work" 0.5);
  Alcotest.(check bool) "reset account has no distribution" true
    (Ledger.distribution l "setup" = None);
  Alcotest.(check (list (pair string int))) "accounts since reset" [ ("work", 20) ]
    (List.map (fun (n, (e : Ledger.entry)) -> (n, e.ns)) (Ledger.accounts l));
  Alcotest.(check int) "total since reset" 20 (Ledger.total l);
  Alcotest.(check int) "balance since reset" 20 (Ledger.balance acct);
  Alcotest.(check bool) "resolving lists nothing" true
    (ignore (Obs.counter obs "fresh"); ignore (Ledger.account l "fresh");
     Obs.value obs "fresh" = 0 && List.length (Obs.counters obs) = 1
     && List.length (Ledger.accounts l) = 1)

(* An account's distribution: one sample per booking. *)
let test_histograms () =
  let l = Ledger.create () in
  Alcotest.(check bool) "absent distribution" true (Ledger.distribution l "h" = None);
  ignore (Ledger.account l "h");
  Alcotest.(check bool) "resolved but unbooked" true (Ledger.distribution l "h" = None);
  List.iter (book l "h") [ 5; 1; 9 ];
  match Ledger.distribution l "h" with
  | None -> Alcotest.fail "distribution missing"
  | Some d ->
      Alcotest.(check int) "count" 3 (Sketch.count d);
      Alcotest.(check int) "count = events" (Ledger.events l "h") (Sketch.count d);
      Alcotest.(check int) "sum" 15 (Sketch.sum d);
      Alcotest.(check int) "sum = ns" (Ledger.ns l "h") (Sketch.sum d);
      Alcotest.(check int) "min" 1 (Sketch.vmin d);
      Alcotest.(check int) "max" 9 (Sketch.vmax d)

let test_quantile_edges () =
  let l = Ledger.create () in
  Alcotest.(check (option int)) "missing distribution" None (quantile l "q" 0.5);
  (* single sample: every quantile is that sample *)
  book l "one" 37;
  List.iter
    (fun q ->
      Alcotest.(check (option int))
        (Printf.sprintf "single sample at q=%.2f" q)
        (Some 37) (quantile l "one" q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* extremes clamp to observed min/max, not bucket bounds *)
  List.iter (book l "two") [ 3; 900 ];
  Alcotest.(check (option int)) "q=0 is the min" (Some 3) (quantile l "two" 0.0);
  Alcotest.(check (option int)) "q=1 is the max" (Some 900) (quantile l "two" 1.0);
  (* a lone sample far above the exact range is still its own estimate *)
  let l2 = Ledger.create () in
  book l2 "b" 4096;
  Alcotest.(check (option int)) "boundary value round-trips" (Some 4096)
    (quantile l2 "b" 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Sketch.quantile: q outside [0,1]") (fun () ->
      ignore (quantile l "one" 1.5));
  (* a rejected booking records nothing, not even an empty distribution *)
  (match book l "neg" (-1) with
  | () -> Alcotest.fail "negative booking accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "negative booking left no distribution" true
    (Ledger.distribution l "neg" = None)

(* The nearest-rank order statistic of [samples] at [q]. *)
let exact_quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let r = int_of_float (ceil ((q *. float_of_int n) -. 1e-9)) in
  a.(max 1 (min n r) - 1)

let test_quantile_within_alpha () =
  let check name samples q =
    let l = Ledger.create () in
    List.iter (book l name) samples;
    let exact = exact_quantile samples q in
    match quantile l name q with
    | None -> Alcotest.fail "distribution missing"
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
  let l = Ledger.create () in
  for _ = 1 to 99 do book l "lat" 10 done;
  book l "lat" 1_000_000;
  Alcotest.(check (option int)) "p99 of 99x10 + 1 outlier is 10" (Some 10)
    (quantile l "lat" 0.99);
  Alcotest.(check (option int)) "p100 is the outlier" (Some 1_000_000)
    (quantile l "lat" 1.0)

(* ECALL/OCALL extents are [span] Begin/End events on the attached
   recorder, between the crossings of their call. *)
let boundary_events tr =
  let phase = function
    | Trace.Begin -> "B" | Trace.End -> "E" | Trace.Instant -> "i" | Trace.Counter -> "C"
  in
  List.filter_map
    (fun e ->
      if e.Trace.cat = "span" || String.ends_with ~suffix:".crossing" e.Trace.name
      then Some (phase e.Trace.phase, e.Trace.name)
      else None)
    (Trace.events tr)

let traced_enclave seed =
  let machine = Machine.create ~seed () in
  let tr = Machine.attach_tracer machine in
  (tr, Enclave.create machine ~code:seed ())

let test_span_nesting () =
  let tr, enclave = traced_enclave "obs-spans" in
  let result =
    Enclave.ecall enclave ~name:"outer" (fun e ->
        Enclave.ocall e ~name:"inner" (fun () -> ());
        "ok")
  in
  Alcotest.(check string) "thunk result returned" "ok" result;
  Alcotest.(check (list (pair string string)))
    "spans nest in call order, inside their crossings"
    [ ("i", "outer.crossing"); ("B", "outer"); ("i", "inner.crossing");
      ("B", "inner"); ("E", "inner"); ("i", "inner.crossing"); ("E", "outer");
      ("i", "outer.crossing") ]
    (boundary_events tr)

let test_span_exception_safe () =
  let tr, enclave = traced_enclave "obs-boom" in
  (try Enclave.ecall enclave ~name:"boom" (fun _ -> failwith "inner failure")
   with Failure _ -> ());
  Alcotest.(check bool) "left the enclave" false (Enclave.inside enclave);
  Alcotest.(check (list (pair string string)))
    "End still emitted, before the exit crossing"
    [ ("i", "boom.crossing"); ("B", "boom"); ("E", "boom"); ("i", "boom.crossing") ]
    (boundary_events tr)

(* --- report rendering --- *)

let test_report_render () =
  let obs = Obs.create () and ledger = Ledger.create () in
  add obs "epc.hit" 3;
  add obs "epc.fault" 1;
  add obs "ipfs.cache.miss" 8;
  book ledger "sgx.launch" 2_000_000;
  let r = Report.render ~ledger obs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "report contains %S" needle)
        true
        (contains r needle))
    [ "epc.hit"; "epc.hit_rate"; "75.0%"; "ipfs.cache.hit_rate"; "0.0%";
      "-- costs --"; "account"; "sgx.launch" ]

let test_report_json () =
  let obs = Obs.create () and ledger = Ledger.create () in
  add obs "wasi.hostcall" 5;
  book ledger "epc.fault" 10526;
  let j = Report.to_json ~ledger obs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %S" needle)
        true
        (contains j needle))
    [ {|"counters":{"wasi.hostcall":5}|};
      {|"histograms":{"epc.fault":{"count":1,"sum_ns":10526,"min_ns":10526,"max_ns":10526}}|} ]

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
  let account = Ledger.account (Machine.ledger machine) in
  Machine.charge machine (account "sgx.launch") 1000;
  Machine.charge machine (account "mee.copy") 500;
  inc obs "epc.hit";
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
        [ "counters"; "histograms"; "ledger" ];
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
           (member_exn "sum_ns" (member_exn "mee.copy" (member_exn "histograms" json))))

(* A WASI guest that writes 16 KiB through the protected FS, rewinds
   and reads it back: every layer from the boundary to AES books. *)
let churn_wat =
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
      (memory (export "memory") 2)
      (data (i32.const 16) "churn.bin")
      (func (export "_start")
        (local $fd i32) (local $i i32)
        (drop (call $path_open (i32.const 3) (i32.const 0) (i32.const 16) (i32.const 9)
                 (i32.const 1) (i64.const 0x1fffffff) (i64.const 0) (i32.const 0)
                 (i32.const 32)))
        (local.set $fd (i32.load (i32.const 32)))
        (i32.store (i32.const 40) (i32.const 65536))
        (i32.store (i32.const 44) (i32.const 4096))
        (loop $w
          (drop (call $fd_write (local.get $fd) (i32.const 40) (i32.const 1) (i32.const 48)))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br_if $w (i32.lt_u (local.get $i) (i32.const 4))))
        (drop (call $fd_seek (local.get $fd) (i64.const 0) (i32.const 0) (i32.const 56)))
        (local.set $i (i32.const 0))
        (loop $r
          (drop (call $fd_read (local.get $fd) (i32.const 40) (i32.const 1) (i32.const 48)))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br_if $r (i32.lt_u (local.get $i) (i32.const 4))))
        (drop (call $fd_close (local.get $fd)))))|}

(* The report's costs are the ledger's: one histogram per booked
   account, whose count and sum are that account's events and ns. *)
let test_report_histograms_are_accounts () =
  let machine = Machine.create ~seed:"obs-churn" ~epc_bytes:(16 * 4096) () in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse churn_wat);
  Alcotest.(check int) "exit 0" 0 (Twine.Runtime.run rt).Twine.Runtime.exit_code;
  let ledger = Machine.ledger machine in
  let hists =
    match Json.parse (Report.to_json ~ledger machine.Machine.obs) with
    | Ok json -> (
        match Json.member "histograms" json with
        | Some (Json.Obj l) -> l
        | _ -> Alcotest.fail "no histograms object")
    | Error msg -> Alcotest.fail ("report JSON does not parse: " ^ msg)
  in
  let accounts = Ledger.accounts ledger in
  Alcotest.(check bool) "reached the protected FS" true
    (List.mem_assoc "ipfs.io" accounts && List.mem_assoc "ipfs.crypto" accounts);
  Alcotest.(check (list string)) "histograms keyed by account" (List.map fst accounts)
    (List.map fst hists);
  List.iter
    (fun (name, (e : Ledger.entry)) ->
      let field f = Option.bind (Json.member f (List.assoc name hists)) Json.to_float in
      Alcotest.(check (option (float 0.0))) (name ^ " count = events")
        (Some (float_of_int e.events)) (field "count");
      Alcotest.(check (option (float 0.0))) (name ^ " sum = ns")
        (Some (float_of_int e.ns)) (field "sum_ns"))
    accounts

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
  Alcotest.(check int) "deploy and run ECALLs booked, in and out" 4
    (Ledger.events (Machine.ledger machine) "sgx.transition.ecall")

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
          Alcotest.test_case "histograms are ledger accounts" `Quick
            test_report_histograms_are_accounts;
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
