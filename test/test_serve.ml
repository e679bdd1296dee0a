(* The serving fleet: deterministic replay, shared-EPC interference
   across runtimes, ECALL batching amortisation, and the scoped machine
   auditor seeing exactly the fleet's machine. *)

open Twine_sgx
open Twine_serve

let small_config =
  {
    Serve.default_config with
    Serve.enclaves = 4;
    requests = 2_000;
    rows = 256;
    epc_bytes = 256 * 4096;
  }

(* -- workload generator -- *)

let test_workload_deterministic () =
  let shape = Serve.shape_of small_config in
  let a = Workload.generate ~seed:"w" shape in
  let b = Workload.generate ~seed:"w" shape in
  Alcotest.(check bool) "same seed, same arrivals" true (a = b);
  let c = Workload.generate ~seed:"other" shape in
  Alcotest.(check bool) "different seed differs" false (a = c);
  Array.iteri
    (fun i x ->
      if i > 0 then
        Alcotest.(check bool) "arrival times nondecreasing" true
          (x.Workload.at >= a.(i - 1).Workload.at);
      Alcotest.(check bool) "enclave in range" true
        (x.Workload.enclave >= 0 && x.Workload.enclave < shape.Workload.enclaves))
    a

let test_workload_validates () =
  let shape = Serve.shape_of small_config in
  Alcotest.check_raises "empty mix"
    (Invalid_argument "Workload.stream: empty mix") (fun () ->
      ignore
        (Workload.generate ~seed:"w"
           { shape with Workload.mix = { kv_get = 0; sql_point = 0; sql_range = 0 } }))

(* The arrivals of one small shape, pinned: a change to the DRBG stream
   or to the draw order changes the traffic every seeded run replays. *)
let test_workload_pinned () =
  let shape =
    { Workload.enclaves = 8; requests = 6; mean_gap_ns = 5_000; rows = 512; span = 8;
      mix = Workload.default_mix }
  in
  let show a =
    let req =
      match a.Workload.req with
      | Workload.Kv_get k -> Printf.sprintf "Kv_get %d" k
      | Sql_point k -> Printf.sprintf "Sql_point %d" k
      | Sql_range (lo, span) -> Printf.sprintf "Sql_range (%d, %d)" lo span
    in
    Printf.sprintf "(%d,%d,%d,%s)" a.rid a.at a.enclave req
  in
  Alcotest.(check (list string)) "arrivals"
    [ "(0,4447,3,Sql_point 304)"; "(1,7617,6,Sql_point 115)"; "(2,11060,3,Kv_get 503)";
      "(3,13658,2,Kv_get 216)"; "(4,21283,0,Kv_get 457)"; "(5,24367,1,Kv_get 417)" ]
    (Array.to_list (Array.map show (Workload.generate ~seed:"w" shape)))

(* -- deterministic replay: byte-identical books and equal tails -- *)

let test_replay_identical () =
  let s1 = Serve.run small_config in
  let s2 = Serve.run small_config in
  Alcotest.(check string) "byte-identical ledger snapshots"
    (Twine_obs.Ledger.to_string s1.Serve.ledger)
    (Twine_obs.Ledger.to_string s2.Serve.ledger);
  Alcotest.(check int) "p50 equal" s1.Serve.p50_ns s2.Serve.p50_ns;
  Alcotest.(check int) "p99 equal" s1.Serve.p99_ns s2.Serve.p99_ns;
  Alcotest.(check int) "elapsed equal" s1.Serve.elapsed_ns s2.Serve.elapsed_ns;
  let s3 = Serve.run { small_config with Serve.seed = "another" } in
  Alcotest.(check bool) "different seed, different books" false
    (Twine_obs.Ledger.to_string s1.Serve.ledger
    = Twine_obs.Ledger.to_string s3.Serve.ledger)

let test_serving_books_balance () =
  let s = Serve.run small_config in
  Alcotest.(check bool) "conservation audit holds" true
    (Twine_obs.Ledger.balanced (Machine.ledger s.Serve.machine));
  Alcotest.(check int) "every request measured" small_config.Serve.requests
    s.Serve.requests;
  Alcotest.(check bool) "exec time booked" true
    (Twine_obs.Ledger.ns (Machine.ledger s.Serve.machine) "serve.exec" > 0)

(* -- one machine: every enclave of the run lives on stats.machine -- *)

let test_fleet_on_its_machine () =
  let stats = Serve.run small_config in
  let m = stats.Serve.machine in
  let eids = List.map fst stats.Serve.evictions_by_enclave in
  Alcotest.(check int) "one enclave per worker" small_config.Serve.enclaves
    (List.length eids);
  Alcotest.(check int) "the machine launched every one of them"
    (small_config.Serve.enclaves + 1) m.Machine.next_enclave_id;
  List.iter
    (fun eid ->
      Alcotest.(check bool)
        (Printf.sprintf "enclave %d's pages are in the machine's EPC" eid)
        true
        (Epc.resident_of m.Machine.epc eid > 0))
    eids

(* -- batching amortises enclave transitions -- *)

let test_batching_amortises_ecalls () =
  let unbatched = Serve.run { small_config with Serve.batch = 1 } in
  let batched = Serve.run { small_config with Serve.batch = 16 } in
  Alcotest.(check int) "unbatched: one ecall per request"
    small_config.Serve.requests unbatched.Serve.ecalls;
  Alcotest.(check bool) "batched: fewer ecalls" true
    (batched.Serve.ecalls < unbatched.Serve.ecalls);
  let per_req s = s.Serve.ecall_ns / s.Serve.requests in
  Alcotest.(check bool) "batched: cheaper transitions per request" true
    (per_req batched < per_req unbatched);
  Alcotest.(check bool) "same work either way" true
    (Twine_obs.Ledger.ns (Machine.ledger batched.Serve.machine) "serve.exec"
    = Twine_obs.Ledger.ns (Machine.ledger unbatched.Serve.machine) "serve.exec")

(* -- two runtimes, one machine: shared-EPC eviction interference -- *)

let test_shared_epc_interference () =
  (* A machine whose EPC holds 32 pages. Runtime A touches a working
     set that fills it; runtime B then touches its own pages, which
     must evict A's — and the EPC books every victim to A. *)
  let machine = Machine.create ~seed:"interference" ~epc_bytes:(32 * 4096) () in
  let config =
    { Twine.Runtime.default_config with Twine.Runtime.heap_bytes = 4096 }
  in
  let ra = Twine.Runtime.create ~config machine in
  let rb = Twine.Runtime.create ~config machine in
  let ea = Twine.Runtime.enclave ra and eb = Twine.Runtime.enclave rb in
  let epc = machine.Machine.epc in
  let base_a = Enclave.reserve ea (64 * 4096) in
  let base_b = Enclave.reserve eb (64 * 4096) in
  (* A faults in 32 pages of its own: EPC now entirely A's *)
  Enclave.touch ea ~addr:base_a ~len:(32 * 4096);
  let evicted_a_before = Epc.evictions_of epc (Enclave.id ea) in
  let faults_before = Epc.faults epc in
  (* B faults in ~8 pages (the reserve base need not be page-aligned):
     the EPC is full of A's pages, so every one of B's faults must
     evict one of A's *)
  Enclave.touch eb ~addr:base_b ~len:(8 * 4096);
  let b_faults = Epc.faults epc - faults_before in
  Alcotest.(check bool) "B faulted" true (b_faults >= 8);
  Alcotest.(check int) "B's faults evicted exactly A's pages" b_faults
    (Epc.evictions_of epc (Enclave.id ea) - evicted_a_before);
  Alcotest.(check int) "B suffered no evictions" 0
    (Epc.evictions_of epc (Enclave.id eb));
  (* interference is booked on the shared machine's ledger *)
  Alcotest.(check bool) "evict cost booked" true
    (Twine_obs.Ledger.ns (Machine.ledger machine) "epc.evict" > 0)

let test_fleet_interference_attribution () =
  (* In a full serving run over a too-small EPC, eviction victims land
     on fleet members — and only on fleet members. *)
  let s =
    Serve.run
      { small_config with Serve.enclaves = 4; epc_bytes = 64 * 4096 }
  in
  let total = List.fold_left (fun a (_, v) -> a + v) 0 s.Serve.evictions_by_enclave in
  Alcotest.(check bool) "the fleet thrashes" true (s.Serve.epc_evictions > 0);
  Alcotest.(check int) "every serving-phase victim belongs to a fleet enclave"
    s.Serve.epc_evictions total

(* -- per-request attribution: the conservation property -- *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* The attribution law through its producer: it balances, and the
   stats carry its residue. *)
let check_attribution label (s : Serve.stats) =
  let a = Serve.attribution s in
  Alcotest.(check bool) (label ^ ": " ^ Twine_obs.Audit.render a) true
    (Twine_obs.Audit.ok a);
  Alcotest.(check int) (label ^ ": stats carry the audit's residue")
    (Twine_obs.Audit.residue a) s.Serve.attribution_residue_ns

let check_conserves label (s : Serve.stats) =
  check_attribution label s;
  Alcotest.(check int) (label ^ ": no failover without chaos") 0 s.Serve.failover_ns;
  Alcotest.(check int)
    (label ^ ": stats total = sum of per-request slices")
    s.Serve.attributed_ns
    (Array.fold_left
       (fun a r -> a + Serve.attributed_ns r)
       0 s.Serve.requests_log);
  Alcotest.(check int)
    (label ^ ": every request logged")
    s.Serve.requests
    (Array.length s.Serve.requests_log);
  Array.iteri
    (fun rid r ->
      Alcotest.(check int) (label ^ ": log indexed by rid") rid r.Serve.rid;
      Alcotest.(check int)
        (label ^ ": latency = queue wait + service")
        (Serve.latency_ns r)
        (Serve.queue_ns r + Serve.service_ns r);
      Alcotest.(check bool) (label ^ ": components non-negative") true
        (Serve.queue_ns r >= 0 && Serve.service_ns r >= 0
        && Serve.attributed_ns r >= 0))
    s.Serve.requests_log

let test_attribution_conserves () =
  (* Across seeds, batch sizes and fleet sizes, the per-request cycle
     slices plus scheduler idle must reproduce the serving-phase ledger
     total exactly — the zero-residue conservation law of the tap. *)
  List.iter
    (fun (seed, batch, enclaves) ->
      let cfg =
        { small_config with Serve.seed; batch; enclaves; requests = 600 }
      in
      let label = Printf.sprintf "seed=%s batch=%d fleet=%d" seed batch enclaves in
      check_conserves label (Serve.run cfg))
    [ ("a", 1, 1); ("a", 16, 4); ("b", 16, 4); ("a", 7, 3); ("c", 16, 8) ]

let test_attribution_under_pressure () =
  (* the law survives EPC thrash: paging and eviction cycles land inside
     request windows, not in the idle bucket *)
  let s = Serve.run { small_config with Serve.epc_bytes = 64 * 4096 } in
  check_conserves "shrunk EPC" s;
  let epc_sliced =
    Array.fold_left
      (fun a r ->
        a + r.Serve.breakdown.Serve.epc_fault_ns
        + r.Serve.breakdown.Serve.epc_evict_ns)
      0 s.Serve.requests_log
  in
  Alcotest.(check bool) "EPC paging cycles sliced to requests" true
    (epc_sliced > 0);
  Alcotest.(check int) "which add up to the ledger's epc accounts" epc_sliced
    (Twine_obs.Ledger.ns (Machine.ledger s.Serve.machine) "epc.fault"
    + Twine_obs.Ledger.ns (Machine.ledger s.Serve.machine) "epc.evict")

let test_request_trace_replays () =
  let s1 = Serve.run small_config in
  let s2 = Serve.run small_config in
  let t1 = Serve.render_requests s1 and t2 = Serve.render_requests s2 in
  Alcotest.(check string) "byte-identical request trace across replays" t1 t2;
  Alcotest.(check bool) "schema stamped" true
    (contains t1 Serve.request_trace_schema);
  Alcotest.(check bool) "different seed, different trace" false
    (Serve.render_requests (Serve.run { small_config with Serve.seed = "x" })
    = t1)

(* -- tail-latency blame -- *)

let cliff_config =
  (* the §V-D cliff: 8 enclaves sharing an EPC shrunk to 96 pages, open
     loop — working sets collide and the fleet saturates *)
  {
    small_config with
    Serve.enclaves = 8;
    requests = 3_000;
    epc_bytes = 96 * 4096;
  }

let test_blame_cliff () =
  let s = Serve.run cliff_config in
  check_conserves "cliff" s;
  Alcotest.(check bool) "the shrunk EPC causes cross-enclave refaults" true
    (s.Serve.cross_refaults > 0);
  (* the dominant p99 account: in the saturated open loop, queue wait —
     the cliff shows up as waiting behind EPC-thrashing neighbours, not
     as the victim's own paging time *)
  (match Serve.blame_summary s with
  | (dominant, n) :: _ ->
      Alcotest.(check string) "queue wait dominates the p99 tail" "queue"
        dominant;
      Alcotest.(check bool) "census counts requests" true (n > 0)
  | [] -> Alcotest.fail "empty blame summary");
  (* blame list: slowest first, dominant component consistent *)
  let blames = Serve.blame ~top:30 s in
  Alcotest.(check int) "top N honoured" 30 (List.length blames);
  ignore
    (List.fold_left
       (fun prev b ->
         let lat = Serve.latency_ns b.Serve.b_request in
         Alcotest.(check bool) "sorted slowest first" true (lat <= prev);
         Alcotest.(check bool) "dominant bounded by latency" true
           (b.Serve.b_dominant_ns <= lat && b.Serve.b_dominant_ns >= 0);
         lat)
       max_int blames);
  (* eviction provenance: every cross-enclave refault is pinned on the
     request that paid for it and on the enclave whose fault evicted it *)
  let paid =
    Array.fold_left
      (fun a r -> List.fold_left (fun a (_, c) -> a + c) a r.Serve.interference)
      0 s.Serve.requests_log
  in
  Alcotest.(check int) "every cross refault charged to a request"
    s.Serve.cross_refaults paid;
  Alcotest.(check int) "evictor census agrees" s.Serve.cross_refaults
    (List.fold_left (fun a (_, c) -> a + c) 0 s.Serve.interference_by_evictor);
  Array.iter
    (fun r ->
      List.iter
        (fun (evictor, count) ->
          Alcotest.(check bool) "evictor is a fleet enclave" true
            (evictor >= 1 && evictor <= cliff_config.Serve.enclaves);
          Alcotest.(check bool) "never self-interference" true
            (evictor <> r.Serve.enclave && count > 0))
        r.Serve.interference)
    s.Serve.requests_log;
  let rendered = Serve.render_blame ~top:5 s in
  Alcotest.(check bool) "render names an interfering enclave" true
    (contains rendered "cross-enclave refaults:" && contains rendered "by-e");
  Alcotest.(check bool) "render states the attribution audit" true
    (contains rendered (Twine_obs.Audit.render (Serve.attribution s)))

(* The p99 exemplars are the served requests at the exact p99 rank and
   the seven below it, slowest first, in the order the exact
   percentiles read (ascending latency, ties by rid). *)
let expected_exemplars (s : Serve.stats) =
  let served =
    Array.of_list
      (List.sort
         (fun a b -> compare (Serve.latency_ns a, a.Serve.rid) (Serve.latency_ns b, b.Serve.rid))
         (List.filter (fun r -> r.Serve.outcome = Serve.Served)
            (Array.to_list s.Serve.requests_log)))
  in
  let i = int_of_float (Float.ceil (0.99 *. float_of_int (Array.length served))) - 1 in
  List.init (min 8 (i + 1)) (fun k -> served.(i - k).Serve.rid)

let test_p99_exemplars () =
  let s = Serve.run small_config in
  let rids = s.Serve.p99_exemplar_rids in
  Alcotest.(check (list int)) "p99 rank and the seven below it" (expected_exemplars s) rids;
  Alcotest.(check int) "eight exemplars" 8 (List.length rids);
  let lats = List.map (fun rid -> Serve.latency_ns s.Serve.requests_log.(rid)) rids in
  Alcotest.(check int) "the first sits at the exact p99" s.Serve.p99_ns (List.hd lats);
  Alcotest.(check (list int)) "slowest first" (List.sort (fun a b -> compare b a) lats) lats;
  (* fewer than eight served: every served request, slowest first *)
  let tiny = Serve.run { small_config with Serve.requests = 5 } in
  Alcotest.(check int) "all five served" 5 tiny.Serve.served;
  Alcotest.(check (list int)) "tiny run" (expected_exemplars tiny) tiny.Serve.p99_exemplar_rids;
  Alcotest.(check (list int)) "every rid once" [ 0; 1; 2; 3; 4 ]
    (List.sort compare tiny.Serve.p99_exemplar_rids);
  (* streaming retains no log, and nothing prints exemplars *)
  let streamed = Serve.run { small_config with Serve.retain_requests = false } in
  Alcotest.(check (list int)) "none under --stream" [] streamed.Serve.p99_exemplar_rids

let test_sampler_and_depth_hwm () =
  let s = Serve.run small_config in
  Alcotest.(check bool) "virtual-time sampler fired" true
    (s.Serve.sampler_samples > 0);
  let deepest =
    List.fold_left (fun a (_, d) -> max a d) 0 s.Serve.queue_depth_hwm_by_enclave
  in
  Alcotest.(check int) "fleet high-water = deepest enclave queue" deepest
    s.Serve.queue_depth_hwm;
  Alcotest.(check bool) "open loop builds a queue" true
    (s.Serve.queue_depth_hwm > 0);
  let off = Serve.run { small_config with Serve.sample_every_ns = 0 } in
  Alcotest.(check int) "sampler disabled by 0" 0 off.Serve.sampler_samples

let test_request_spans_on_tracks () =
  (* with a recorder attached, every request emits a Begin/End span on
     its enclave's request track (reserved "tid" arg) plus a serve.req
     instant keyed by rid *)
  let cfg = { small_config with Serve.requests = 200 } in
  let recorder = ref None in
  let s =
    Serve.run
      ~prepare:(fun m -> recorder := Some (Machine.attach_tracer m))
      cfg
  in
  let tr = Option.get !recorder in
  let evs = Twine_obs.Trace.events tr in
  let spans =
    List.filter
      (fun e ->
        e.Twine_obs.Trace.cat = "serve"
        && e.Twine_obs.Trace.phase = Twine_obs.Trace.Begin
        && List.mem_assoc "tid" e.Twine_obs.Trace.args)
      evs
  in
  Alcotest.(check int) "one span per request" cfg.Serve.requests
    (List.length spans);
  List.iter
    (fun e ->
      let tid = List.assoc "tid" e.Twine_obs.Trace.args in
      Alcotest.(check bool) "span rides a per-enclave request track" true
        (tid > 100 && tid <= 100 + cfg.Serve.enclaves);
      Alcotest.(check bool) "span carries its rid" true
        (List.mem_assoc "rid" e.Twine_obs.Trace.args))
    spans;
  let rids =
    List.filter_map
      (fun e ->
        if e.Twine_obs.Trace.name = "serve.req" then
          List.assoc_opt "rid" e.Twine_obs.Trace.args
        else None)
      evs
  in
  Alcotest.(check int) "one completion instant per request" cfg.Serve.requests
    (List.length rids);
  Alcotest.(check (list int)) "every rid exactly once"
    (List.init cfg.Serve.requests Fun.id)
    (List.sort compare rids);
  (* the thread metadata the exporter needs exists for every track *)
  let threads = Serve.threads s in
  Alcotest.(check int) "a named track per enclave" cfg.Serve.enclaves
    (List.length threads)

(* -- streaming SLO plane -- *)

let slo_spec =
  match Twine_obs.Slo.parse "p99<2ms@50ms,budget=0.1%" with
  | Ok s -> s
  | Error e -> failwith e

let slo_config = { small_config with Serve.slo = Some slo_spec }

let test_stream_matches_retained () =
  let retained = Serve.run slo_config in
  let streamed = Serve.run { slo_config with Serve.retain_requests = false } in
  Alcotest.(check bool) "retained flag" true retained.Serve.retained;
  Alcotest.(check bool) "stream flag" false streamed.Serve.retained;
  Alcotest.(check int) "stream holds no request log" 0
    (Array.length streamed.Serve.requests_log);
  (* the virtual timeline is one code path: identical books *)
  Alcotest.(check string) "byte-identical ledgers"
    (Twine_obs.Ledger.to_string retained.Serve.ledger)
    (Twine_obs.Ledger.to_string streamed.Serve.ledger);
  (* the twine-slo/v1 artifact is mode-independent by construction *)
  Alcotest.(check string) "byte-identical slo artifacts"
    (Serve.render_slo retained)
    (Serve.render_slo streamed);
  (* so is twine-sqlstats/v1: the registry accumulates on the shared
     serving path *)
  Alcotest.(check string) "byte-identical sqlstats artifacts"
    (Serve.render_sqlstats retained)
    (Serve.render_sqlstats streamed);
  (* stream percentiles are the sketch's, and the sketch agrees with
     the retained run's exact values within alpha *)
  Alcotest.(check int) "stream p50 = sketch p50" streamed.Serve.sketch_p50_ns
    streamed.Serve.p50_ns;
  Alcotest.(check int) "stream p99 = sketch p99" streamed.Serve.sketch_p99_ns
    streamed.Serve.p99_ns;
  let within name exact est =
    let bound =
      int_of_float (Twine_obs.Sketch.alpha *. float_of_int exact) + 1
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s within alpha (exact %d, sketch %d)" name exact est)
      true
      (abs (est - exact) <= bound)
  in
  within "p50" retained.Serve.p50_ns retained.Serve.sketch_p50_ns;
  within "p99" retained.Serve.p99_ns retained.Serve.sketch_p99_ns;
  (* per-request views fail loudly without retention *)
  List.iter
    (fun (name, f) ->
      match f () with
      | (_ : string) -> Alcotest.failf "%s did not raise under --stream" name
      | exception Invalid_argument _ -> ())
    [ ("render_blame", fun () -> Serve.render_blame streamed);
      ("render_requests", fun () -> Serve.render_requests streamed) ]

let test_window_invariants () =
  let s = Serve.run slo_config in
  let ws = s.Serve.windows in
  Alcotest.(check bool) "at least one window" true (List.length ws > 0);
  (* contiguous from window 0, uniform width *)
  List.iteri
    (fun i w ->
      let open Twine_obs.Timeseries in
      Alcotest.(check int) "index" i w.w_index;
      Alcotest.(check int) "start"
        (s.Serve.t0_ns + (i * s.Serve.window_ns))
        w.w_start_ns;
      Alcotest.(check int) "width" s.Serve.window_ns (w.w_end_ns - w.w_start_ns);
      Alcotest.(check bool) "overs never exceed count" true
        (w.w_overs <= w.w_count))
    ws;
  let sum f = List.fold_left (fun a w -> a + f w) 0 in
  Alcotest.(check int) "fleet windows hold every request"
    s.Serve.requests
    (sum (fun w -> w.Twine_obs.Timeseries.w_count) ws);
  (* the enclave tracks tile the fleet track *)
  let enclave_total =
    List.fold_left
      (fun acc (eid, _) ->
        acc
        + sum
            (fun w -> w.Twine_obs.Timeseries.w_count)
            (Twine_obs.Timeseries.windows s.Serve.series
               ~track:(Printf.sprintf "e%d" eid)))
      0 s.Serve.epc_resident_by_enclave
  in
  Alcotest.(check int) "enclave tracks tile the fleet" s.Serve.requests
    enclave_total;
  (* the cumulative sketch folded every latency *)
  Alcotest.(check int) "sketch count" s.Serve.requests
    (Twine_obs.Sketch.count s.Serve.sketch);
  (* the whole-run evaluation rides those windows *)
  match s.Serve.slo with
  | None -> Alcotest.fail "slo eval missing"
  | Some (spec, ev) ->
      Alcotest.(check int) "spec threads through" slo_spec.Twine_obs.Slo.window_ns
        spec.Twine_obs.Slo.window_ns;
      Alcotest.(check int) "eval saw every window" (List.length ws)
        ev.Twine_obs.Slo.ev_windows;
      Alcotest.(check int) "eval saw every request" s.Serve.requests
        ev.Twine_obs.Slo.ev_total;
      Alcotest.(check int) "overs consistent"
        (sum (fun w -> w.Twine_obs.Timeseries.w_overs) ws)
        ev.Twine_obs.Slo.ev_overs

let test_slo_verdicts () =
  (* a generous objective passes; a tight one fails, deterministically *)
  let with_threshold t =
    { slo_config with Serve.slo = Some { slo_spec with Twine_obs.Slo.threshold_ns = t } }
  in
  let relaxed = Serve.run (with_threshold max_int) in
  (match relaxed.Serve.slo with
  | Some (_, ev) ->
      Alcotest.(check bool) "relaxed objective holds" false
        ev.Twine_obs.Slo.ev_violated;
      Alcotest.(check int) "no overs" 0 ev.Twine_obs.Slo.ev_overs;
      Alcotest.(check int) "no burn" 0 ev.Twine_obs.Slo.ev_burn_x1000
  | None -> Alcotest.fail "eval missing");
  let tight = Serve.run (with_threshold 1) in
  match tight.Serve.slo with
  | Some (_, ev) ->
      Alcotest.(check bool) "tight objective violated" true
        ev.Twine_obs.Slo.ev_violated;
      Alcotest.(check int) "every request over" tight.Serve.requests
        ev.Twine_obs.Slo.ev_overs
  | None -> Alcotest.fail "eval missing"

(* Query-stats registry: every request lands in exactly one entry of
   its enclave's registry, the fleet view is the merge, and the entries
   are the workload's three statement shapes under their normalized
   fingerprints. *)
let test_sqlstats_registry () =
  let open Twine_sqldb in
  let s = Serve.run small_config in
  let fleet = Sqlstat.entries s.Serve.sqlstats_fleet in
  Alcotest.(check int) "one entry per statement shape" 3 (List.length fleet);
  Alcotest.(check (list string)) "normalized fingerprints"
    [ "SELECT b , c FROM t WHERE a = ?";
      "SELECT count ( * ) , sum ( b ) FROM t WHERE a >= ? AND a < ?";
      "SELECT v FROM kv WHERE k = ?" ]
    (List.map (fun e -> e.Sqlstat.sq_fingerprint) fleet);
  Alcotest.(check int) "fleet counts cover every request"
    s.Serve.requests
    (List.fold_left (fun a e -> a + e.Sqlstat.sq_count) 0 fleet);
  (* fleet = merge of the per-enclave registries, byte-identically *)
  let remerged =
    List.fold_left
      (fun acc (_, reg) -> Sqlstat.merge acc reg)
      (Sqlstat.create ())
      s.Serve.sqlstats_by_enclave
  in
  Alcotest.(check string) "fleet is the merge"
    (Twine_obs.Json.to_string (Sqlstat.to_json s.Serve.sqlstats_fleet))
    (Twine_obs.Json.to_string (Sqlstat.to_json remerged));
  (* per-enclave latency sketches hold every latency the fleet saw *)
  let sketch_count reg =
    List.fold_left
      (fun a e -> a + Twine_obs.Sketch.count e.Sqlstat.sq_latency)
      0 (Sqlstat.entries reg)
  in
  Alcotest.(check int) "sketches cover every request" s.Serve.requests
    (List.fold_left
       (fun a (_, reg) -> a + sketch_count reg)
       0 s.Serve.sqlstats_by_enclave)

let test_stream_scale () =
  (* 10x the small config's requests, streaming: completes in flat
     memory with the books still balanced and every request windowed *)
  let s =
    Serve.run
      { slo_config with Serve.requests = 20_000; retain_requests = false }
  in
  Alcotest.(check int) "all requests served" 20_000 s.Serve.requests;
  Alcotest.(check int) "no request log" 0 (Array.length s.Serve.requests_log);
  check_attribution "stream" s;
  Alcotest.(check int) "sketch folded all" 20_000
    (Twine_obs.Sketch.count s.Serve.sketch);
  Alcotest.(check int) "windows hold all" 20_000
    (List.fold_left
       (fun a w -> a + w.Twine_obs.Timeseries.w_count)
       0 s.Serve.windows);
  Alcotest.(check bool) "books balance" true
    (Twine_obs.Ledger.balanced (Machine.ledger s.Serve.machine))

(* -- failure domain: chaos, failover, deadlines, retries, shedding -- *)

let chaos s =
  match Twine_sim.Chaos.parse s with
  | Ok spec -> Some spec
  | Error e -> failwith ("test chaos spec: " ^ e)

(* The extended conservation law: with a failover bucket in play, the
   per-request slices plus scheduler idle plus the failure domain's
   booked work must reproduce the serving-phase total exactly. *)
let check_conserves_failover label (s : Serve.stats) =
  check_attribution label s;
  Alcotest.(check int)
    (label ^ ": stats total = sum of per-request slices")
    s.Serve.attributed_ns
    (Array.fold_left
       (fun a r -> a + Serve.attributed_ns r)
       0 s.Serve.requests_log);
  Alcotest.(check int)
    (label ^ ": outcomes partition the workload")
    s.Serve.requests
    (s.Serve.served + s.Serve.shed + s.Serve.timed_out + s.Serve.failed)

let chaos_config =
  {
    small_config with
    Serve.requests = 1_500;
    chaos = chaos "seed=t;enclave.ecall=crash@40";
    retries = 3;
  }

let test_chaos_failover_recovers () =
  (* the acceptance scenario: one enclave crashes mid-run; the fleet
     detects it, destroys it, relaunches a replacement that recovers
     durable state, requeues the in-flight batch, and finishes the
     workload without failing the run *)
  let s = Serve.run chaos_config in
  Alcotest.(check bool) "an enclave was lost and relaunched" true
    (s.Serve.failovers >= 1);
  Alcotest.(check bool) "goodput survives the crash" true
    (s.Serve.goodput_rps > 0.);
  Alcotest.(check bool) "the crashed batch was retried" true
    (s.Serve.retries >= 1);
  Alcotest.(check bool) "recovery duration recorded" true
    (s.Serve.recovery_p99_ns > 0);
  Alcotest.(check bool) "failover work booked" true (s.Serve.failover_ns > 0);
  let l = Machine.ledger s.Serve.machine in
  List.iter
    (fun a ->
      Alcotest.(check bool) (a ^ " booked") true (Twine_obs.Ledger.ns l a > 0))
    [ "serve.failover.detect"; "serve.failover.teardown";
      "serve.failover.relaunch"; "serve.failover.recover" ];
  check_conserves_failover "chaos" s;
  Array.iter
    (fun r ->
      if r.Serve.outcome = Serve.Served then
        Alcotest.(check bool) "served requests record their attempts" true
          (r.Serve.attempts >= 1))
    s.Serve.requests_log

let test_destroy_relaunch_audit () =
  (* regression: destroy-then-relaunch must leave clean books — the
     machine-level conservation audit and the per-request law both hold
     with zero residue, and the fleet views track the live enclaves *)
  let s = Serve.run { chaos_config with Serve.requests = 1_000 } in
  Alcotest.(check bool) "relaunched" true (s.Serve.failovers >= 1);
  Alcotest.(check bool) "books balance after destroy+relaunch" true
    (Twine_obs.Ledger.balanced (Machine.ledger s.Serve.machine));
  check_conserves_failover "destroy+relaunch" s;
  Alcotest.(check int) "one residency row per live slot" s.Serve.enclaves
    (List.length s.Serve.epc_resident_by_enclave);
  Alcotest.(check int) "one eviction row per live slot" s.Serve.enclaves
    (List.length s.Serve.evictions_by_enclave)

let prop_chaos_modes_agree =
  (* satellite property: across seeds x batch x fleet x chaos rate, the
     retained and --stream runs of one (seed, config) produce
     byte-identical ledgers and twine-slo/v1 artifacts, and the
     extended conservation law holds exactly *)
  QCheck.Test.make ~name:"retained and stream chaos runs agree" ~count:6
    QCheck.(
      quad (oneofl [ "s1"; "s2"; "s3" ]) (oneofl [ 1; 7; 16 ])
        (oneofl [ 1; 3; 8 ])
        (oneofl [ 0.; 0.004; 0.02 ]))
    (fun (seed, batch, enclaves, rate) ->
      let spec =
        if rate = 0. then "seed=p;enclave.ecall=crash@30"
        else
          Printf.sprintf "seed=p;enclave.ecall=crash@30;enclave.ecall=fail%%%g"
            rate
      in
      let cfg =
        {
          small_config with
          Serve.seed;
          batch;
          enclaves;
          requests = 500;
          chaos = chaos spec;
          retries = 3;
          deadline_ns = 80_000_000;
        }
      in
      let r = Serve.run cfg in
      let t = Serve.run { cfg with Serve.retain_requests = false } in
      Serve.render_slo r = Serve.render_slo t
      && Twine_obs.Ledger.to_string r.Serve.ledger
         = Twine_obs.Ledger.to_string t.Serve.ledger
      && Twine_obs.Audit.ok (Serve.attribution r)
      && Twine_obs.Audit.ok (Serve.attribution t)
      && r.Serve.attributed_ns
         = Array.fold_left
             (fun a q -> a + Serve.attributed_ns q)
             0 r.Serve.requests_log)

let test_backing_read_faults_retry () =
  (* regression: a corrupted, torn or dropped backing read fails the
     protected FS's authentication. That exception used to escape
     Serve.run. The stored ciphertext is intact, so the batch is
     retried like any transient fault, and the plan, armed on the run's
     own machine, never reaches the next clean run. *)
  let cfg =
    { Serve.default_config with
      Serve.requests = 600; enclaves = 2; rows = 2048; cache_pages = 32 }
  in
  let clean () = Twine_obs.Ledger.to_string (Serve.run cfg).Serve.ledger in
  let before = clean () in
  List.iter
    (fun action ->
      let label = "backing.read=" ^ action in
      let s = Serve.run { cfg with Serve.chaos = chaos ("seed=x;" ^ label ^ "%0.05") } in
      Alcotest.(check bool) (label ^ ": batches retried") true (s.Serve.retries > 0);
      Alcotest.(check int) (label ^ ": no enclave lost") 0 s.Serve.failovers;
      Alcotest.(check int) (label ^ ": every request served or out of retries")
        cfg.Serve.requests (s.Serve.served + s.Serve.failed);
      check_attribution label s;
      Alcotest.(check bool) (label ^ ": books balance") true
        (Twine_obs.Ledger.balanced (Machine.ledger s.Serve.machine));
      Alcotest.(check string) (label ^ ": the next clean run is untouched") before
        (clean ()))
    [ "corrupt"; "torn:0.5"; "drop" ]

let test_deadline_expires () =
  (* a deadline shorter than typical queue wait: requests expire while
     queued, each exactly once, finish pinned at arrival + deadline *)
  let cfg =
    { small_config with Serve.requests = 800; deadline_ns = 300_000 }
  in
  let s = Serve.run cfg in
  Alcotest.(check bool) "some requests timed out" true (s.Serve.timed_out > 0);
  Alcotest.(check bool) "some still served" true (s.Serve.served > 0);
  Array.iter
    (fun r ->
      if r.Serve.outcome = Serve.Timed_out then begin
        (* timers drain at batch boundaries, so completion lands at or
           after the scheduled expiry — never before it *)
        Alcotest.(check bool) "finish >= arrival + deadline" true
          (r.Serve.finish_ns >= r.Serve.arrival_ns + cfg.Serve.deadline_ns);
        Alcotest.(check int) "expired while queued: never dispatched" 0
          r.Serve.attempts
      end)
    s.Serve.requests_log;
  check_conserves_failover "deadline" s;
  let off = Serve.run { cfg with Serve.deadline_ns = 0 } in
  Alcotest.(check int) "0 disables deadlines" 0 off.Serve.timed_out

let test_shed_depth () =
  (* an overloaded open loop with admission control: arrivals finding
     the queue at the depth limit fast-fail as Shed with no attempts
     and no cycle slice, and goodput keeps flowing *)
  let cfg =
    {
      small_config with
      Serve.enclaves = 2;
      requests = 1_200;
      mean_gap_ns = 300;
      shed_depth = 16;
    }
  in
  let s = Serve.run cfg in
  Alcotest.(check bool) "overload sheds" true (s.Serve.shed > 0);
  Alcotest.(check bool) "but keeps serving" true (s.Serve.served > 0);
  Array.iter
    (fun r ->
      if r.Serve.outcome = Serve.Shed then begin
        Alcotest.(check int) "shed at admission: no attempts" 0
          r.Serve.attempts;
        Alcotest.(check int) "shed requests carry no cycle slice" 0
          (Serve.attributed_ns r)
      end)
    s.Serve.requests_log;
  Alcotest.(check int) "availability counts only served requests"
    (s.Serve.served * 1_000_000 / cfg.Serve.requests)
    s.Serve.availability_ppm;
  check_conserves_failover "shed" s;
  let off = Serve.run { cfg with Serve.shed_depth = 0 } in
  Alcotest.(check int) "0 disables depth shedding" 0 off.Serve.shed

let test_retry_backoff_and_exhaustion () =
  (* transient entry faults requeue with backoff (no failover); a zero
     retry budget turns the same fault into Failed requests *)
  let cfg =
    {
      small_config with
      Serve.requests = 1_000;
      chaos = chaos "seed=r;enclave.ecall=fail%0.02";
      retries = 5;
    }
  in
  let s = Serve.run cfg in
  Alcotest.(check bool) "transient faults retried" true (s.Serve.retries > 0);
  Alcotest.(check int) "transient faults cause no failover" 0
    s.Serve.failovers;
  let retried =
    Array.to_list s.Serve.requests_log
    |> List.filter (fun r -> r.Serve.attempts > 1)
  in
  Alcotest.(check bool) "some requests took several attempts" true
    (retried <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "backoff wait recorded" true
        (r.Serve.retry_wait_ns > 0))
    retried;
  Alcotest.(check int) "budget of 5 absorbs a 2% fault rate" 0 s.Serve.failed;
  check_conserves_failover "retry" s;
  let f =
    Serve.run
      { cfg with Serve.retries = 0; chaos = chaos "seed=r;enclave.ecall=fail@3" }
  in
  Alcotest.(check bool) "retry budget 0 fails the faulted batch" true
    (f.Serve.failed > 0);
  check_conserves_failover "exhausted" f

let test_hedged_retries () =
  (* a crash with hedging on: the lost batch's requests requeue onto the
     least-loaded slot, so some retried request is served away from its
     home slot — by neither the crashed enclave nor its replacement *)
  let cfg = { chaos_config with Serve.requests = 1_000; hedge = true } in
  let s = Serve.run cfg in
  Alcotest.(check bool) "an enclave was lost" true (s.Serve.failovers >= 1);
  let arrivals = Workload.generate ~seed:cfg.Serve.seed (Serve.shape_of cfg) in
  (* the fleet launches slot by slot, so slot i's first enclave has the
     i-th smallest id; a replacement takes over its slot's position *)
  let live = List.map fst s.Serve.evictions_by_enclave in
  let first = List.fold_left min max_int (live @ s.Serve.retired_enclaves) in
  let home_eids slot = [ first + slot; List.nth live slot ] in
  let away =
    Array.to_list s.Serve.requests_log
    |> List.filter (fun r ->
           r.Serve.outcome = Serve.Served
           && r.Serve.attempts > 1
           && not
                (List.mem r.Serve.enclave
                   (home_eids arrivals.(r.Serve.rid).Workload.enclave)))
  in
  Alcotest.(check bool) "some retried request served away from home" true
    (away <> []);
  check_conserves_failover "hedge" s;
  let again = Serve.run cfg in
  Alcotest.(check string) "byte-identical request trace"
    (Serve.render_requests s) (Serve.render_requests again);
  Alcotest.(check string) "byte-identical ledger"
    (Twine_obs.Ledger.to_string s.Serve.ledger)
    (Twine_obs.Ledger.to_string again.Serve.ledger)

let test_slo_keeps_replaced_tracks () =
  (* twine-slo/v1 carries every track's windows: after a failover the
     enclave tracks, the replaced one included, still tile the fleet *)
  let s = Serve.run { chaos_config with Serve.requests = 1_000 } in
  Alcotest.(check bool) "an enclave was replaced" true (s.Serve.failovers >= 1);
  let open Twine_obs.Json in
  let field k j = Option.get (member k j) in
  let count track =
    List.fold_left
      (fun a w -> a + int_of_float (Option.get (to_float (field "count" w))))
      0
      (Option.get (to_list (field "windows" track)))
  in
  let tracks = Option.get (to_list (field "tracks" (parse_exn (Serve.render_slo s)))) in
  let fleet, enclaves =
    List.partition (fun t -> to_str (field "track" t) = Some "fleet") tracks
  in
  Alcotest.(check int) "enclave tracks sum to the fleet count"
    (List.fold_left (fun a t -> a + count t) 0 fleet)
    (List.fold_left (fun a t -> a + count t) 0 enclaves)

let test_no_global_wasm_factor () =
  (* a fleet's pinned factor must not leak into a later calibration *)
  ignore (Serve.run { small_config with Serve.requests = 50; wasm_factor = 9.0 });
  Alcotest.(check bool) "calibration is not the fleet's factor" true
    (Twine.Bench_db.calibrate_wasm_factor () <> 9.0)

(* -- the artifacts `twine serve` writes, read back as JSON -- *)

let json_of artifact =
  match Twine_obs.Json.parse artifact with
  | Ok j -> j
  | Error e -> Alcotest.failf "artifact does not parse: %s" e

let member key j =
  match Twine_obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S" key

let num key j =
  match Twine_obs.Json.to_float (member key j) with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "%S is not a number" key

let str key j =
  match Twine_obs.Json.to_str (member key j) with
  | Some v -> v
  | None -> Alcotest.failf "%S is not a string" key

let items key j =
  match Twine_obs.Json.to_list (member key j) with
  | Some l -> l
  | None -> Alcotest.failf "%S is not an array" key

let count_sum entries = List.fold_left (fun a e -> a + num "count" e) 0 entries

(* --timeline: a named request track per enclave, every request span
   keyed by its rid, the sampler's counter series, the ring's health *)
let test_timeline_export () =
  let recorder = ref None in
  let s =
    Serve.run ~prepare:(fun m -> recorder := Some (Machine.attach_tracer m)) small_config
  in
  let j =
    json_of
      (Twine_obs.Trace_export.to_string ~process_name:"twine-serve"
         ~threads:(Serve.threads s) (Option.get !recorder))
  in
  List.iter
    (fun k -> ignore (member k (member "otherData" j)))
    [ "recorded"; "dropped"; "lost"; "high_water"; "capacity" ];
  let events = items "traceEvents" j in
  let on_request_track ph e = str "ph" e = ph && num "tid" e >= 101 in
  let tracks =
    List.filter
      (fun e -> on_request_track "M" e && str "name" e = "thread_name")
      events
  in
  Alcotest.(check int) "a request track per enclave" small_config.Serve.enclaves
    (List.length tracks);
  List.iter
    (fun e ->
      let name = str "name" (member "args" e) in
      Alcotest.(check bool) (name ^ ": a requests track") true
        (String.ends_with ~suffix:" requests" name))
    tracks;
  let spans = List.filter (on_request_track "B") events in
  Alcotest.(check bool) "request spans on the tracks" true (spans <> []);
  List.iter (fun e -> ignore (member "rid" (member "args" e))) spans;
  let counters =
    List.filter_map
      (fun e -> if str "ph" e = "C" then Some (str "name" e) else None)
      events
  in
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " series") true (List.mem c counters))
    [ "serve.queue_depth"; "serve.epc_resident"; "serve.completed" ]

(* --sql-stats: fleet and per-enclave counts both cover every request,
   and no literal survives into a fingerprint *)
let test_sqlstats_artifact () =
  let s = Serve.run small_config in
  let j = json_of (Serve.render_sqlstats s) in
  Alcotest.(check string) "schema" "twine-sqlstats/v1" (str "schema" j);
  Alcotest.(check int) "requests" s.Serve.requests (num "requests" j);
  let fleet = items "fleet" j in
  Alcotest.(check int) "fleet counts sum to the requests" s.Serve.requests
    (count_sum fleet);
  List.iter
    (fun e ->
      let fp = str "fingerprint" e in
      Alcotest.(check bool) (fp ^ ": normalised") true (String.contains fp '?'))
    fleet;
  let per_enclave = items "by_enclave" j in
  Alcotest.(check int) "a registry per enclave" small_config.Serve.enclaves
    (List.length per_enclave);
  Alcotest.(check int) "per-enclave counts sum to the requests" s.Serve.requests
    (List.fold_left (fun a e -> a + count_sum (items "stats" e)) 0 per_enclave)

(* --slo-out of a --stream run: the sketch and the fleet windows each
   hold every request *)
let test_slo_artifact () =
  let s = Serve.run { slo_config with Serve.retain_requests = false } in
  let j = json_of (Serve.render_slo s) in
  Alcotest.(check string) "schema" "twine-slo/v1" (str "schema" j);
  Alcotest.(check int) "requests" s.Serve.requests (num "requests" j);
  Alcotest.(check int) "the sketch holds every request" s.Serve.requests
    (num "count" (member "sketch" j));
  match List.filter (fun t -> str "track" t = "fleet") (items "tracks" j) with
  | [ fleet ] ->
      Alcotest.(check int) "fleet windows hold every request" s.Serve.requests
        (count_sum (items "windows" fleet))
  | _ -> Alcotest.fail "expected one fleet track"

(* The report sections an operator reads, retained and streaming. *)
let test_render_sections () =
  let s = Serve.run small_config in
  let shows text needle =
    Alcotest.(check bool) ("shows " ^ needle) true (contains text needle)
  in
  List.iter (shows (Serve.render s)) [ "throughput"; "evictions by enclave" ];
  List.iter
    (shows (Serve.render_blame ~top:5 s))
    [ "serve blame: top 5 of"; "p99 tail dominants" ];
  shows
    (Serve.render (Serve.run { small_config with Serve.retain_requests = false }))
    "(streaming: no per-request log)"

let () =
  Alcotest.run "twine_serve"
    [
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "validates" `Quick test_workload_validates;
          Alcotest.test_case "pinned arrivals" `Quick test_workload_pinned;
        ] );
      ( "replay",
        [
          Alcotest.test_case "byte-identical books" `Quick test_replay_identical;
          Alcotest.test_case "books balance" `Quick test_serving_books_balance;
          Alcotest.test_case "the fleet lives on its machine" `Quick
            test_fleet_on_its_machine;
          Alcotest.test_case "no process-global wasm factor" `Quick
            test_no_global_wasm_factor;
        ] );
      ( "batching",
        [
          Alcotest.test_case "amortises ecalls" `Quick
            test_batching_amortises_ecalls;
        ] );
      ( "shared-epc",
        [
          Alcotest.test_case "cross-enclave eviction" `Quick
            test_shared_epc_interference;
          Alcotest.test_case "fleet attribution" `Quick
            test_fleet_interference_attribution;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "conserves across seeds/batch/fleet" `Quick
            test_attribution_conserves;
          Alcotest.test_case "conserves under EPC pressure" `Quick
            test_attribution_under_pressure;
          Alcotest.test_case "request trace replays byte-identical" `Quick
            test_request_trace_replays;
        ] );
      ( "blame",
        [
          Alcotest.test_case "EPC-cliff tail attribution" `Quick
            test_blame_cliff;
          Alcotest.test_case "p99 exemplar rids" `Quick test_p99_exemplars;
          Alcotest.test_case "sampler and queue high-water" `Quick
            test_sampler_and_depth_hwm;
          Alcotest.test_case "request spans on enclave tracks" `Quick
            test_request_spans_on_tracks;
        ] );
      ( "slo-plane",
        [
          Alcotest.test_case "stream matches retained" `Quick
            test_stream_matches_retained;
          Alcotest.test_case "window invariants" `Quick test_window_invariants;
          Alcotest.test_case "verdicts" `Quick test_slo_verdicts;
          Alcotest.test_case "streams 10x in flat memory" `Quick
            test_stream_scale;
        ] );
      ( "sqlstats",
        [
          Alcotest.test_case "fleet registry and merge" `Quick
            test_sqlstats_registry;
        ] );
      ( "failure-domain",
        [
          Alcotest.test_case "chaos crash fails over and recovers" `Quick
            test_chaos_failover_recovers;
          Alcotest.test_case "destroy+relaunch audits clean" `Quick
            test_destroy_relaunch_audit;
          Alcotest.test_case "backing-read faults retry" `Quick
            test_backing_read_faults_retry;
          Alcotest.test_case "deadlines expire queued requests" `Quick
            test_deadline_expires;
          Alcotest.test_case "depth shedding under overload" `Quick
            test_shed_depth;
          Alcotest.test_case "retry backoff and exhaustion" `Quick
            test_retry_backoff_and_exhaustion;
          Alcotest.test_case "hedged retries leave the home slot" `Quick
            test_hedged_retries;
          Alcotest.test_case "slo artifact keeps replaced tracks" `Quick
            test_slo_keeps_replaced_tracks;
          QCheck_alcotest.to_alcotest prop_chaos_modes_agree;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "timeline export" `Quick test_timeline_export;
          Alcotest.test_case "twine-sqlstats/v1" `Quick test_sqlstats_artifact;
          Alcotest.test_case "twine-slo/v1" `Quick test_slo_artifact;
          Alcotest.test_case "render sections" `Quick test_render_sections;
        ] );
    ]
