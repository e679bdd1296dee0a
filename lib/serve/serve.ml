(* Deterministic multi-enclave serving simulator.

   A fleet of TWINE runtimes shares ONE simulated machine — one virtual
   clock, one EPC, one ledger — so the fleet contends for the Enclave
   Page Cache exactly as co-located enclaves do on real hardware
   (paper §III-A/V-D). The scheduler is run-to-completion on the single
   simulated core: it round-robins over per-enclave FIFO queues, lifts
   up to [batch] queued requests behind a single ECALL
   ({!Twine.Runtime.serve}), and advances the clock only through
   [Machine.charge] — so the conservation audit covers the serving phase
   and a (seed, config) pair replays to a byte-identical ledger.

   Batching is the measurement the paper's §V transition costs motivate:
   an enclave crossing costs ~13,100 cycles each way, so N coalesced
   requests pay 2 crossings instead of 2N. Protected-FS work triggered
   inside the batch nests for free (nested ECALLs charge nothing), which
   is what makes the amortisation visible in [sgx.transition.ecall].

   The run is three parts, each readable on its own:
   - attribution owns the ledger tap, the EPC refault hook and the
     conservation law;
   - the scheduler core owns the arrival and timer queues, the per-slot
     workers, admission, retry/backoff, hedging and failover;
   - [complete] is the one path every outcome leaves through: the only
     place that counts outcomes, keeps the request log, feeds the
     latency histogram and the windowed series. *)

open Twine_sgx
open Twine_sqldb
open Twine_obs

type config = {
  enclaves : int;
  requests : int;
  batch : int;  (* max requests coalesced behind one ECALL; 1 = unbatched *)
  seed : string;
  mean_gap_ns : int;
  rows : int;
  span : int;
  payload_bytes : int;
  cache_pages : int;
  epc_bytes : int;
  mix : Workload.mix;
  wasm_factor : float;
      (* pinned, never wall-clock calibrated: reproducibility first *)
  ns_per_work : float;
  sample_every_ns : int;  (* virtual-time metrics sampling period; 0 = off *)
  retain_requests : bool;
      (* keep the per-request log (blame, exact percentiles); --stream
         turns it off and the run holds O(windows + sketch) memory *)
  window_ns : int;  (* tumbling-window period when no SLO supplies one *)
  slo : Slo.spec option;
  (* -- failure-domain layer -- *)
  chaos : Twine_sim.Chaos.spec option;
      (* seeded fault schedule armed for the serving phase only; windows
         in the spec are relative to the phase start *)
  deadline_ns : int;  (* client gives up this long after arrival; 0 = off *)
  retries : int;  (* requeues allowed per request after a failed batch *)
  backoff_ns : int;  (* retry backoff base; attempt k waits base * 2^(k-1) *)
  hedge : bool;  (* retries go to the least-loaded enclave, not home *)
  shed_depth : int;  (* admission control: shed when a queue is this deep *)
}

let default_config =
  {
    enclaves = 8;
    requests = 100_000;
    batch = 16;
    seed = "twine-serve";
    mean_gap_ns = 5_000;
    rows = 512;
    span = 16;
    payload_bytes = 96;
    cache_pages = 256;
    epc_bytes = 768 * 4096;
    mix = Workload.default_mix;
    wasm_factor = 2.5;
    ns_per_work = 60.;
    sample_every_ns = 1_000_000;
    retain_requests = true;
    window_ns = 50_000_000;
    slo = None;
    chaos = None;
    deadline_ns = 0;
    retries = 2;
    backoff_ns = 100_000;
    hedge = false;
    shed_depth = 0;
  }

(* The exponential backoff stops doubling at this multiple of the base. *)
let backoff_cap_factor = 50

(* Failover orchestration costs (virtual ns, pinned): the host-side work
   of detecting an aborted enclave, EREMOVE-ing its pages, relaunching a
   replacement and re-opening its durable state. The big costs — enclave
   launch (EADD/EEXTEND) and protected-file crash recovery — are charged
   by the layers that do the work; these are the scheduler's own steps. *)
let failover_detect_ns = 5_000
let failover_teardown_base_ns = 20_000
let failover_teardown_page_ns = 150
let failover_relaunch_ns = 50_000
let failover_recover_ns = 20_000

let shape_of (c : config) : Workload.shape =
  {
    Workload.enclaves = c.enclaves;
    requests = c.requests;
    mean_gap_ns = c.mean_gap_ns;
    rows = c.rows;
    span = c.span;
    mix = c.mix;
  }

(* --- per-request records --- *)

type breakdown = {
  mutable transition_ns : int;  (* sgx.transition.* *)
  mutable exec_ns : int;  (* serve.exec *)
  mutable pager_ns : int;  (* serve.pager *)
  mutable epc_fault_ns : int;
  mutable epc_evict_ns : int;
  mutable crypto_ns : int;  (* ipfs.crypto + mee.* *)
  mutable other_ns : int;  (* everything else (alloc, ipfs.io, ...) *)
}

let credit b account ns =
  if account = "serve.exec" then b.exec_ns <- b.exec_ns + ns
  else if account = "serve.pager" then b.pager_ns <- b.pager_ns + ns
  else if account = "epc.fault" then b.epc_fault_ns <- b.epc_fault_ns + ns
  else if account = "epc.evict" then b.epc_evict_ns <- b.epc_evict_ns + ns
  else if String.starts_with ~prefix:"sgx.transition" account
  then b.transition_ns <- b.transition_ns + ns
  else if account = "ipfs.crypto" || String.starts_with ~prefix:"mee." account
  then b.crypto_ns <- b.crypto_ns + ns
  else b.other_ns <- b.other_ns + ns

let breakdown_total b =
  b.transition_ns + b.exec_ns + b.pager_ns + b.epc_fault_ns + b.epc_evict_ns
  + b.crypto_ns + b.other_ns

(* How a request left the system. [Served] is the only outcome that
   counts toward goodput; the others are first-class records too, so
   every admitted rid appears exactly once in the request log and the
   loop's completion counter is total over outcomes. *)
type outcome =
  | Served
  | Shed  (* fast-failed at admission (queue depth) *)
  | Timed_out  (* client deadline passed while queued or backing off *)
  | Failed  (* retry budget exhausted after enclave faults *)

let outcome_name = function
  | Served -> "served"
  | Shed -> "shed"
  | Timed_out -> "timeout"
  | Failed -> "failed"

type request = {
  rid : int;
  enclave : int;
  kind : string;
  arrival_ns : int;
  start_ns : int;
  mutable finish_ns : int;
  mutable outcome : outcome;
  mutable attempts : int;
      (* dispatches into a batch (0 for requests shed/expired unserved) *)
  mutable retry_wait_ns : int;  (* backoff delay scheduled before retries *)
  breakdown : breakdown;
  mutable interference : (int * int) list;
      (* evictor enclave -> cross-enclave refaults this request paid for,
         sorted by enclave id once the request completes *)
}

(* A record starts (and a fast-fail ends) at [start_ns]; service moves
   [finish_ns] on. *)
let new_request ~rid ~eid ~req ~at ~start outcome ~attempts ~retry_wait =
  {
    rid;
    enclave = eid;
    kind = Workload.req_name req;
    arrival_ns = at;
    start_ns = start;
    finish_ns = start;
    outcome;
    attempts;
    retry_wait_ns = retry_wait;
    breakdown =
      { transition_ns = 0; exec_ns = 0; pager_ns = 0; epc_fault_ns = 0;
        epc_evict_ns = 0; crypto_ns = 0; other_ns = 0 };
    interference = [];
  }

let latency_ns r = r.finish_ns - r.arrival_ns
let queue_ns r = r.start_ns - r.arrival_ns
let service_ns r = r.finish_ns - r.start_ns
let attributed_ns r = breakdown_total r.breakdown

type stats = {
  requests : int;
  enclaves : int;
  batch : int;
  elapsed_ns : int;  (* serving-phase virtual time (setup books dropped) *)
  idle_ns : int;
  throughput_rps : float;
  mean_ns : int;
  p50_ns : int;
  p99_ns : int;
  max_ns : int;
  batches : int;
  ecalls : int;
  ocalls : int;
  transitions_per_request : float;
  ecall_ns : int;  (* ledger [sgx.transition.ecall], serving phase *)
  epc_faults : int;
  epc_evictions : int;
  epc_limit_pages : int;
  epc_resident_pages : int;
  evictions_by_enclave : (int * int) list;
      (* (enclave id, times one of its pages was the victim) *)
  retired_enclaves : int list;  (* replaced by failover, ascending *)
  (* per-request attribution *)
  requests_log : request array;  (* indexed by rid *)
  attributed_ns : int;  (* sum over requests of their cycle slices *)
  unattributed_ns : int;  (* booked outside any batch: scheduler idle *)
  failover_ns : int;
      (* booked to the failure domain: wasted work of crashed batches
         plus the detect/teardown/relaunch/recover path *)
  attribution_residue_ns : int;
      (* booked - attributed - unattributed - failover: 0 *)
  (* failure-domain outcomes *)
  served : int;
  shed : int;
  timed_out : int;
  failed : int;
  retries : int;  (* requeues scheduled after failed batches *)
  failovers : int;  (* enclaves lost, destroyed, and relaunched *)
  recovery_p99_ns : int;  (* p99 failover duration (0 when no failover) *)
  goodput_rps : float;  (* served / elapsed *)
  availability_ppm : int;  (* served per million admitted *)
  cross_refaults : int;
  interference_by_evictor : (int * int) list;
  p99_exemplar_rids : int list;
  (* virtual-time sampler *)
  sampler_samples : int;
  queue_depth_hwm : int;
  queue_depth_hwm_by_enclave : (int * int) list;
  epc_resident_by_enclave : (int * int) list;
  (* streaming SLO plane *)
  retained : bool;  (* requests_log populated? false under --stream *)
  t0_ns : int;  (* serving-phase start: window 0 opens here *)
  window_ns : int;  (* effective tumbling-window period *)
  series : Timeseries.t;
  windows : Timeseries.window list;  (* fleet track, ascending *)
  sketch : Sketch.t;  (* merge of per-window fleet sketches *)
  sketch_p50_ns : int;
  sketch_p99_ns : int;
  slo : (Slo.spec * Slo.eval) option;
  (* query-stats registry: per-enclave and fleet-merged; populated on
     the shared serving path, so identical in retained and --stream *)
  sqlstats_by_enclave : (int * Sqlstat.t) list;  (* eid ascending *)
  sqlstats_fleet : Sqlstat.t;
  ledger : Ledger.snapshot;
  machine : Machine.t;
}

type worker = {
  rt : Twine.Runtime.t;
  db : Db.t;
  queue : (int * int * Workload.req) Queue.t;  (* (rid, arrival ns, request) *)
  pager_work : int ref;
  mutable depth_hwm : int;
  mutable live : int;
      (* live queued requests (the queue may also hold tombstoned
         entries for requests that timed out while waiting) *)
  eid : int;
  sqlstats : Sqlstat.t;  (* per-enclave query-stats registry *)
}

(* Built by concatenation, not [Printf]: this runs once per request. *)
let sql_of_req = function
  | Workload.Kv_get k -> "SELECT v FROM kv WHERE k = " ^ string_of_int k
  | Workload.Sql_point k -> "SELECT b, c FROM t WHERE a = " ^ string_of_int k
  | Workload.Sql_range (lo, span) ->
      String.concat ""
        [ "SELECT count(*), sum(b) FROM t WHERE a >= "; string_of_int lo;
          " AND a < "; string_of_int (lo + span) ]

let value_bytes = function
  | Value.Null -> 4
  | Value.Int _ | Value.Real _ -> 8
  | Value.Text s | Value.Blob s -> String.length s

let response_bytes (r : Db.result) =
  List.fold_left
    (fun acc row -> List.fold_left (fun a v -> a + value_bytes v) acc row)
    0 r.Db.rows

(* Index of the nearest-rank [q]-quantile in a sorted array of [n]
   (0 when [n = 0]). *)
let rank_index n q =
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  max 0 (min (n - 1) (rank - 1))

(* Exact percentile (nearest-rank) over a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank_index n q)

(* The served requests at the exact p99 rank and the seven below it,
   slowest first; [by_latency] holds them in ascending latency order. *)
let p99_exemplars by_latency =
  let n = Array.length by_latency in
  let i = rank_index n 0.99 in
  List.init (min 8 (min n (i + 1))) (fun k -> by_latency.(i - k).rid)

(* Request spans render on one Perfetto track per enclave; the windowed
   series keys the same enclave by its track name. *)
let request_track eid = 100 + eid
let fleet_track = "fleet"
let track_of_eid eid = "e" ^ string_of_int eid

(* [backing] is the slot's untrusted persistent store: it survives the
   enclave, so a replacement worker created with the same backing
   recovers the slot's durable database through the protected-file
   crash-recovery path (seal keys derive from the runtime measurement,
   not the enclave id, so the replacement unseals its predecessor's
   files). [sqlstats] lets a replacement continue its slot's registry. *)
let make_worker (cfg : config) machine ~backing ?sqlstats () =
  let config =
    {
      Twine.Runtime.default_config with
      Twine.Runtime.heap_bytes = 1024 * 1024;
      cache_nodes = 48;
    }
  in
  let rt = Twine.Runtime.create ~config ~backing machine in
  let e = Twine.Runtime.enclave rt in
  let vfs = Twine.Bench_db.pfs_svfs (Twine.Runtime.fs rt) in
  let hooks = Pager.default_hooks () in
  let pager_work = ref 0 in
  hooks.Pager.on_work <- (fun n -> pager_work := !pager_work + n);
  (* The page cache is enclave memory: every page buffer access is an
     EPC touch, so the fleet's aggregate hot set presses on the shared
     EPC — the contention this simulator exists to measure. *)
  let base = Enclave.reserve e (1 lsl 33) in
  hooks.Pager.on_access <-
    (fun page_no ->
      Enclave.touch e ~addr:(base + (page_no * Pager.page_size)) ~len:Pager.page_size);
  let db =
    Db.open_db ~vfs ~cache_pages:cfg.cache_pages ~hooks
      ~obs:machine.Machine.obs "serve.db"
  in
  { rt; db; queue = Queue.create (); pager_work; depth_hwm = 0; live = 0;
    eid = Enclave.id e;
    sqlstats = (match sqlstats with Some s -> s | None -> Sqlstat.create ()) }

let populate (cfg : config) w =
  ignore (Db.exec w.db "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)");
  ignore (Db.exec w.db "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)");
  let payload j = Printf.sprintf "%0*d" cfg.payload_bytes j in
  let chunk = 64 in
  let buf = Buffer.create 8192 in
  let insert table render =
    let i = ref 0 in
    while !i < cfg.rows do
      let hi = min cfg.rows (!i + chunk) in
      Buffer.clear buf;
      Buffer.add_string buf "INSERT INTO ";
      Buffer.add_string buf table;
      Buffer.add_string buf " VALUES ";
      for j = !i to hi - 1 do
        if j > !i then Buffer.add_char buf ',';
        Buffer.add_string buf (render j)
      done;
      ignore (Db.exec w.db (Buffer.contents buf));
      i := hi
    done
  in
  ignore (Db.exec w.db "BEGIN");
  insert "kv" (fun j -> Printf.sprintf "(%d,'%s')" j (payload j));
  insert "t" (fun j -> Printf.sprintf "(%d,%d,'%s')" j (j * 7) (payload j));
  ignore (Db.exec w.db "COMMIT")

(* Components of a request's latency: queue wait vs the cycle slices.
   The fixed order is load-bearing — {!dominant} breaks ties toward the
   earlier entry, so blame verdicts are deterministic — and the same
   names key the per-window breakdown sums in the SLO plane. *)
let components r =
  let retry = min r.retry_wait_ns (queue_ns r) in
  [ ("queue", queue_ns r - retry);
    ("retry", retry);
    ("transition", r.breakdown.transition_ns);
    ("exec", r.breakdown.exec_ns);
    ("pager", r.breakdown.pager_ns);
    ("epc.fault", r.breakdown.epc_fault_ns);
    ("epc.evict", r.breakdown.epc_evict_ns);
    ("crypto", r.breakdown.crypto_ns);
    ("other", r.breakdown.other_ns) ]

let bump_assoc l key d =
  let rec go = function
    | [] -> [ (key, d) ]
    | (k, v) :: rest when k = key -> (k, v + d) :: rest
    | kv :: rest -> kv :: go rest
  in
  go l

(* === Attribution ===

   While a request is being served, the ledger tap routes EVERY booking
   into that request's cycle breakdown. A booking with no request live
   belongs to the current phase: scheduler idle, the shared overhead of
   the batch in flight (its entry/exit crossings, split across the
   batch's requests when it commits), or the failure domain. Because the
   clock only advances through [Machine.charge] and every charge hits
   the tap exactly once, the slices satisfy a structural conservation
   law with NO residue:

     sum over requests of attributed_ns + idle + failover
       =  serving-phase booked total  =  serving-phase elapsed time

   and per request: latency = queue wait + own service time, where the
   service time equals the request's direct (pre-overhead-share)
   attribution exactly. *)

type phase = Idle | Batch | Failover

type attribution = {
  mutable phase : phase;
  mutable serving : request option;  (* the request being served *)
  overhead : (string, int) Hashtbl.t;  (* the batch's shared bookings *)
  mutable attributed : int;
      (* credited to requests as it lands (tap + overhead shares): a
         streaming run has no request log to fold at the end *)
  mutable idle : int;
  mutable failover : int;
  mutable by_evictor : (int * int) list;  (* cross-enclave refaults *)
}

let book a account ns =
  match a.serving with
  | Some r ->
      credit r.breakdown account ns;
      a.attributed <- a.attributed + ns
  | None -> (
      match a.phase with
      | Idle -> a.idle <- a.idle + ns
      | Failover -> a.failover <- a.failover + ns
      | Batch ->
          Hashtbl.replace a.overhead account
            (ns + Option.value ~default:0 (Hashtbl.find_opt a.overhead account)))

(* Cross-enclave eviction provenance lands on the live request. *)
let refault a ~owner:_ ~evictor =
  match a.serving with
  | Some r ->
      r.interference <- bump_assoc r.interference evictor 1;
      a.by_evictor <- bump_assoc a.by_evictor evictor 1
  | None -> ()

let attach machine =
  let a =
    { phase = Idle; serving = None; overhead = Hashtbl.create 8; attributed = 0;
      idle = 0; failover = 0; by_evictor = [] }
  in
  Ledger.set_tap (Machine.ledger machine) (Some (book a));
  Epc.set_refault_hook machine.Machine.epc (Some (refault a));
  a

let detach machine =
  Ledger.set_tap (Machine.ledger machine) None;
  Epc.set_refault_hook machine.Machine.epc None

(* A committed batch: split each overhead account evenly over the
   requests it served, remainder to the first, so the split is exact in
   integers. *)
let share_overhead a served =
  let k = List.length served in
  if k > 0 then
    Hashtbl.iter
      (fun account ns ->
        let per = ns / k and rem = ns mod k in
        List.iteri
          (fun j r ->
            let share = per + if j = 0 then rem else 0 in
            credit r.breakdown account share;
            a.attributed <- a.attributed + share)
          served)
      a.overhead;
  Hashtbl.reset a.overhead

(* A lost batch: the partial slices of the request in flight when the
   fault hit, plus the batch's overhead, are wasted work. Moving them to
   the failure domain keeps the law exact. Requests served before the
   fault keep their slices but get no overhead share. *)
let salvage a =
  (match a.serving with
  | Some r ->
      let t = breakdown_total r.breakdown in
      a.attributed <- a.attributed - t;
      a.failover <- a.failover + t;
      a.serving <- None
  | None -> ());
  a.failover <- a.failover + Hashtbl.fold (fun _ ns acc -> acc + ns) a.overhead 0;
  Hashtbl.reset a.overhead

(* The law above, over a finished run (on a chaos run, the chaos law). *)
let attribution (s : stats) =
  { Audit.law = "attribution"; unit = "ns"; total = ("booked", s.ledger.Ledger.booked_ns);
    parts =
      [ ("requests", s.attributed_ns); ("idle", s.unattributed_ns);
        ("failover", s.failover_ns) ] }

(* === The scheduler core === *)

(* Scheduler-side state for an admitted request whose outcome is not yet
   decided, so the table is bounded by the backlog, not by n. *)
type rstate = {
  s_home : int;  (* home fleet slot (workload's enclave choice) *)
  mutable s_slot : int;  (* slot whose queue currently holds it *)
  mutable s_requeues : int;  (* retries consumed *)
  mutable s_retry_wait : int;  (* backoff delay scheduled so far *)
  mutable s_deadline : Twine_sim.Eventq.id option;
  mutable s_queued : bool;
      (* physically in a worker queue; false while dispatched in a batch
         or waiting out a backoff *)
  s_arrival : int;
  s_req : Workload.req;
}

(* Client deadlines and retry requeues, on the arrivals' clock. *)
type timer = Deadline of int | Requeue of int * int * Workload.req

type fleet = {
  cfg : config;
  machine : Machine.t;
  obs : Obs.t;
  tracer : Trace.t option;
  attr : attribution;
  t0 : int;
  backings : Twine_ipfs.Backing.t array;
      (* one untrusted store per slot: it outlives any enclave serving
         the slot, so failover relaunches into the same durable state *)
  workers : worker array;  (* by slot; failover replaces in place *)
  evict0 : int array;  (* each slot's eviction count when it launched *)
  mutable retired : int list;
  arrivals : (int * int * Workload.req) Twine_sim.Eventq.t;
      (* (rid, home slot, request), fed lazily from the workload *)
  next_arrival : unit -> Workload.arrival option;
  mutable lookahead : Workload.arrival option;
  timers : timer Twine_sim.Eventq.t;
  rstate : (int, rstate) Hashtbl.t;
  jitter : Twine_crypto.Drbg.t;
  mutable pending : int;  (* live queued requests, fleet-wide *)
  mutable rr : int;
  mutable batches : int;
  mutable recoveries : int list;
  mutable samples : int;
  mutable next_sample : int;
  (* the completion path's books *)
  series : Timeseries.t;
  log : request option array;  (* by rid; empty under --stream *)
  completed : int ref;
  (* the serving loop's own meters and histogram *)
  exec : Machine.meter;
  pager : Machine.meter;
  idle : Machine.meter;
  batch_fill : Obs.histogram;
}

let now f = Machine.now_ns f.machine

(* === The completion path ===

   Every admitted rid leaves through [complete] exactly once, whatever
   its outcome. [rs] completed together — a batch's served requests, or
   one fast-fail — and all of them are counted before any is windowed,
   so a window that closes mid-fold probes the batch's full count. Only
   served requests are windowed: the fleet track's sketch therefore
   holds the exact served count, latency sum and maximum. *)
let complete f rs =
  List.iter
    (fun r ->
      if f.cfg.retain_requests then f.log.(r.rid) <- Some r;
      incr f.completed;
      if r.outcome <> Served then begin
        let name = "serve." ^ outcome_name r.outcome in
        Obs.inc (Obs.counter f.obs name);
        Obs.emit f.obs ~cat:"serve"
          ~args:[ ("rid", r.rid); ("enclave", r.enclave); ("lat_ns", latency_ns r) ]
          name
      end)
    rs;
  List.iter
    (fun r ->
      if r.outcome = Served then begin
        let comps = components r and lat = latency_ns r in
        Timeseries.record f.series ~now:r.finish_ns ~track:fleet_track
          ~latency_ns:lat ~comps ();
        Timeseries.record f.series ~now:r.finish_ns
          ~track:(track_of_eid r.enclave) ~latency_ns:lat ~comps ()
      end)
    rs

(* The outcome is decided: revoke the deadline, drop scheduler state. *)
let retire f rid st =
  (match st.s_deadline with
  | Some id -> Twine_sim.Eventq.cancel f.timers id
  | None -> ());
  Hashtbl.remove f.rstate rid

(* Completion without service: shed at admission, client deadline
   expiry, or retry-budget exhaustion. The record books nothing: any
   wasted work was already moved to the failure domain. *)
let fail_fast f outcome ~eid ?st rid at req =
  let attempts, retry_wait =
    match st with
    | None -> (0, 0)
    | Some st ->
        retire f rid st;
        ((st.s_requeues + if outcome = Failed then 1 else 0), st.s_retry_wait)
  in
  complete f [ new_request ~rid ~eid ~req ~at ~start:(now f) outcome ~attempts ~retry_wait ]

(* Request and operator spans ride the enclave's request track; no-ops
   without an attached recorder. *)
let span f phase ~cat ~eid ~rid name =
  match f.tracer with
  | None -> ()
  | Some tr -> (
      let tid = ("tid", request_track eid) in
      match phase with
      | `Begin -> Trace.begin_span tr ~cat ~args:[ tid; ("rid", rid) ] name
      | `End -> Trace.end_span tr ~cat ~args:[ tid ] name)

let work_ns cfg work =
  int_of_float (Float.round (float_of_int work *. cfg.ns_per_work *. cfg.wasm_factor))

(* Per-operator attribution: the statement's exec booking is sliced
   across its operator tree (plus profiling overhead) in proportion to
   self-work. Slices sum exactly to [exec_ns] and land on the same
   account, so the books are byte-identical to one single charge. *)
let charge_exec f w ~rid exec_ns =
  let shares =
    List.concat_map
      (fun (p : Db.profile) ->
        List.map (fun (o : Db.opstat) -> (o.Db.os_name, o.Db.os_work)) p.Db.pr_ops
        @ [ ("overhead", p.Db.pr_overhead_work) ])
      (Db.profiles w.db)
  in
  match shares with
  | [] -> Machine.charge f.machine f.exec exec_ns
  | _ ->
      let slices = Db.slice_ns ~total_ns:exec_ns (List.map snd shares) in
      List.iter2
        (fun (name, _) ns ->
          if ns > 0 then begin
            let op = "sql." ^ name in
            span f `Begin ~cat:"sqldb" ~eid:w.eid ~rid op;
            Machine.charge f.machine f.exec ns;
            span f `End ~cat:"sqldb" ~eid:w.eid ~rid op
          end)
        shares slices

(* Serve one queued request inside its batch's ECALL. The request's
   outcome is decided once it finishes; it completes when the batch
   does (after any overhead shares land). *)
let serve_one f w e (rid, at, req) =
  let st = Hashtbl.find f.rstate rid in
  let r =
    new_request ~rid ~eid:w.eid ~req ~at ~start:(now f) Served
      ~attempts:(st.s_requeues + 1) ~retry_wait:st.s_retry_wait
  in
  span f `Begin ~cat:"serve" ~eid:w.eid ~rid r.kind;
  f.attr.serving <- Some r;
  let sql = sql_of_req req in
  Enclave.copy_in e ~label:"serve.req" (String.length sql);
  Db.reset_work w.db;
  let pr0, pw0, _ = Pager.stats (Db.pager w.db) in
  let res = Db.exec w.db sql in
  let pr1, pw1, _ = Pager.stats (Db.pager w.db) in
  let work = Db.work w.db in
  let exec_ns = work_ns f.cfg work in
  charge_exec f w ~rid exec_ns;
  let pager_units = !(w.pager_work) in
  let pager_ns = work_ns f.cfg pager_units in
  if pager_units > 0 then begin
    Machine.charge f.machine f.pager pager_ns;
    w.pager_work := 0
  end;
  Enclave.copy_out e ~label:"serve.resp" (response_bytes res);
  f.attr.serving <- None;
  r.finish_ns <- now f;
  r.interference <- List.sort compare r.interference;
  span f `End ~cat:"serve" ~eid:w.eid ~rid r.kind;
  let lat = latency_ns r in
  (* recorded on the shared serving path, so retained and --stream runs
     accumulate identical registries *)
  Sqlstat.record w.sqlstats ~label:r.kind ~fingerprint:(Sqlstat.fingerprint sql)
    ~rows:(List.length res.Db.rows) ~work ~reads:(pr1 - pr0) ~writes:(pw1 - pw0)
    ~exec_ns ~pager_ns ~latency_ns:lat ();
  retire f rid st;
  Obs.emit f.obs ~cat:"serve"
    ~args:[ ("rid", rid); ("enclave", w.eid); ("lat_ns", lat) ]
    "serve.req";
  r

(* Push every arrival due by [now] in rid order, so FIFO tie-breaks
   match a materialise-everything-upfront schedule while the queue
   itself stays O(backlog). Workload times are relative to [t0]. *)
let rec refill f now =
  match f.lookahead with
  | Some a when f.t0 + a.Workload.at <= now ->
      Twine_sim.Eventq.add f.arrivals ~at:(f.t0 + a.Workload.at)
        (a.Workload.rid, a.Workload.enclave, a.Workload.req);
      f.lookahead <- f.next_arrival ();
      refill f now
  | _ -> ()

let enqueue f slot item st =
  let w = f.workers.(slot) in
  Queue.add item w.queue;
  st.s_queued <- true;
  st.s_slot <- slot;
  w.live <- w.live + 1;
  if w.live > w.depth_hwm then w.depth_hwm <- w.live;
  f.pending <- f.pending + 1

let least_loaded f =
  let best = ref 0 in
  Array.iteri (fun i w -> if w.live < f.workers.(!best).live then best := i) f.workers;
  !best

(* Admission control sheds before spending anything on the request. *)
let admit f ~at (rid, slot, req) =
  let w = f.workers.(slot) in
  if f.cfg.shed_depth > 0 && w.live >= f.cfg.shed_depth then
    fail_fast f Shed ~eid:w.eid rid at req
  else begin
    let st =
      { s_home = slot; s_slot = slot; s_requeues = 0; s_retry_wait = 0;
        s_deadline = None; s_queued = false; s_arrival = at; s_req = req }
    in
    Hashtbl.replace f.rstate rid st;
    if f.cfg.deadline_ns > 0 then
      st.s_deadline <-
        Some
          (Twine_sim.Eventq.schedule f.timers ~at:(at + f.cfg.deadline_ns)
             (Deadline rid));
    enqueue f slot (rid, at, req) st
  end

let on_timer f ~at:_ = function
  | Deadline rid -> (
      match Hashtbl.find_opt f.rstate rid with
      | None -> ()
      | Some st ->
          (* the client gave up: while queued (tombstone the entry) or
             while waiting out a retry backoff *)
          let w = f.workers.(st.s_slot) in
          if st.s_queued then begin
            w.live <- w.live - 1;
            f.pending <- f.pending - 1;
            st.s_queued <- false
          end;
          fail_fast f Timed_out ~eid:w.eid ~st rid st.s_arrival st.s_req)
  | Requeue (rid, at, req) -> (
      match Hashtbl.find_opt f.rstate rid with
      | None -> ()  (* timed out while backing off *)
      | Some st ->
          let slot = if f.cfg.hedge then least_loaded f else st.s_home in
          enqueue f slot (rid, at, req) st)

let drain f =
  let now = now f in
  refill f now;
  Twine_sim.Eventq.drain_until f.arrivals ~now (admit f);
  Twine_sim.Eventq.drain_until f.timers ~now (on_timer f)

(* Capped exponential backoff with deterministic DRBG jitter (up to
   +25%), identical across replays and modes. *)
let backoff f st =
  let base = f.cfg.backoff_ns in
  if base <= 0 then 0
  else
    let b = min (backoff_cap_factor * base) (base * (1 lsl min 20 (st.s_requeues - 1))) in
    b + if b >= 4 then Twine_crypto.Drbg.int_below f.jitter (b / 4) else 0

(* The unfinished requests of a lost batch retry after a backoff, or
   fail once their budget is spent. Requests served before the fault
   were already retired, so they have no scheduler state left. *)
let requeue_unfinished f ~eid batch =
  List.iter
    (fun (rid, at, req) ->
      match Hashtbl.find_opt f.rstate rid with
      | None -> ()
      | Some st when st.s_requeues >= f.cfg.retries ->
          fail_fast f Failed ~eid ~st rid at req
      | Some st ->
          st.s_requeues <- st.s_requeues + 1;
          Obs.inc (Obs.counter f.obs "serve.retry");
          let b = backoff f st in
          st.s_retry_wait <- st.s_retry_wait + b;
          ignore
            (Twine_sim.Eventq.schedule f.timers ~at:(now f + b) (Requeue (rid, at, req))))
    batch

(* The enclave is lost: EREMOVE it (releasing its EPC pages and purging
   its eviction provenance; its Db handle dies with it) and relaunch a
   replacement that recovers the slot's durable state from the backing.
   Arrivals queued behind the crash migrate to the replacement. *)
let relaunch f slot w =
  let epc = f.machine.Machine.epc in
  let step account ns =
    Machine.charge f.machine (Machine.meter f.machine ~account "serve.failover") ns
  in
  Obs.inc (Obs.counter f.obs "serve.failover");
  let start = now f in
  step "serve.failover.detect" failover_detect_ns;
  step "serve.failover.teardown"
    (failover_teardown_base_ns + (Epc.resident_of epc w.eid * failover_teardown_page_ns));
  Twine.Runtime.destroy w.rt;
  step "serve.failover.relaunch" failover_relaunch_ns;
  let w' = make_worker f.cfg f.machine ~backing:f.backings.(slot) ~sqlstats:w.sqlstats () in
  step "serve.failover.recover" failover_recover_ns;
  Queue.transfer w.queue w'.queue;
  w'.live <- w.live;
  w'.depth_hwm <- w.depth_hwm;
  f.workers.(slot) <- w';
  f.evict0.(slot) <- Epc.evictions_of epc w'.eid;
  f.retired <- w.eid :: f.retired;
  let dur = now f - start in
  f.recoveries <- dur :: f.recoveries;
  Obs.observe (Obs.histogram f.obs "serve.failover_ns") dur

(* A batch's ECALL failed. [`Transient]: the enclave is healthy and only
   the batch is lost; [`Lost]: the enclave is gone. Either way the
   failure domain books the cost and the unfinished requests retry. *)
let fail_batch f slot w batch err =
  salvage f.attr;
  f.attr.phase <- Failover;
  (match err with
  | `Transient _ ->
      Machine.charge f.machine
        (Machine.meter f.machine ~account:"serve.failover.detect" "serve.failover")
        failover_detect_ns
  | `Lost _ -> relaunch f slot w);
  f.attr.phase <- Idle;
  requeue_unfinished f ~eid:w.eid batch

(* Virtual-time sampler: per-enclave counter series, sample-and-hold
   (one sample per crossed boundary batch). *)
let sample f =
  let period = f.cfg.sample_every_ns in
  let now = now f in
  if period > 0 && now >= f.next_sample then begin
    f.samples <- f.samples + 1;
    if Option.is_some f.tracer then begin
      let per g = Array.to_list (Array.map (fun w -> (track_of_eid w.eid, g w)) f.workers) in
      Obs.emit_counter f.obs ~cat:"serve" "serve.queue_depth" (per (fun w -> w.live));
      Obs.emit_counter f.obs ~cat:"serve" "serve.epc_resident"
        (per (fun w -> Epc.resident_of f.machine.Machine.epc w.eid));
      Obs.emit_counter f.obs ~cat:"serve" "serve.completed"
        [ ("requests", !(f.completed)) ]
    end;
    f.next_sample <- now - ((now - f.t0) mod period) + period
  end

(* Nothing runnable: the simulated core sleeps until the next event —
   an arrival (queued or the stream's lookahead), a client deadline or
   a retry requeue — booked, so the audit still balances to elapsed. *)
let sleep f =
  let earliest a b =
    match (a, b) with None, x | x, None -> x | Some x, Some y -> Some (min x y)
  in
  match
    earliest
      (Twine_sim.Eventq.peek_time f.arrivals)
      (earliest
         (Option.map (fun a -> f.t0 + a.Workload.at) f.lookahead)
         (Twine_sim.Eventq.peek_time f.timers))
  with
  | Some t -> Machine.charge f.machine f.idle (t - now f)
  | None -> assert false (* requests remain, so events remain *)

(* Pop up to [nleft] LIVE entries, skipping tombstones of requests that
   timed out while queued. *)
let rec take_batch f w nleft acc =
  if nleft = 0 || w.live = 0 then List.rev acc
  else
    let ((rid, _, _) as item) = Queue.pop w.queue in
    match Hashtbl.find_opt f.rstate rid with
    | Some st when st.s_queued ->
        st.s_queued <- false;
        w.live <- w.live - 1;
        take_batch f w (nleft - 1) (item :: acc)
    | _ -> take_batch f w nleft acc

(* Round-robin to the next slot with live work, lift up to [batch] of
   its requests behind one ECALL, then commit or fail the batch. *)
let dispatch f =
  let k = f.cfg.enclaves in
  let rec find i tries =
    if tries = 0 then assert false (* pending > 0 implies a live queue *)
    else if f.workers.(i mod k).live = 0 then find (i + 1) (tries - 1)
    else i mod k
  in
  let slot = find f.rr k in
  f.rr <- (slot + 1) mod k;
  let w = f.workers.(slot) in
  let batch = take_batch f w f.cfg.batch [] in
  let size = List.length batch in
  f.pending <- f.pending - size;
  f.batches <- f.batches + 1;
  Obs.observe f.batch_fill size;
  let ctx =
    match (f.tracer, batch) with
    | Some _, (first, _, _) :: _ ->
        let last, _, _ = List.nth batch (size - 1) in
        Some [ ("enclave", w.eid); ("size", size); ("rid_first", first); ("rid_last", last) ]
    | _ -> None
  in
  f.attr.phase <- Batch;
  let done_rev = ref [] in
  let result =
    Twine.Runtime.serve_safe w.rt ?batch:ctx (fun e ->
        List.iter (fun item -> done_rev := serve_one f w e item :: !done_rev) batch)
  in
  f.attr.phase <- Idle;
  let served = List.rev !done_rev in
  (match result with
  | Ok () -> share_overhead f.attr served
  | Error err -> fail_batch f slot w batch err);
  complete f served

(* Window gauges, probed as each window closes: the fleet track takes
   EPC activity deltas, the completion count and the total backlog; an
   enclave track its own backlog and residency. *)
let probe ~obs ~epc ~workers ~completed =
  let last = Hashtbl.create 8 in
  let delta key =
    let v = Obs.value obs key in
    let prev = Option.value ~default:0 (Hashtbl.find_opt last key) in
    Hashtbl.replace last key v;
    v - prev
  in
  fun ~track ->
    if track = fleet_track then
      [ ("completed", !completed);
        ("epc.fault", delta "epc.fault");
        ("epc.evict", delta "epc.evict");
        ("epc.refault.cross", delta "epc.refault.cross");
        ("queue_depth", Array.fold_left (fun a w -> a + w.live) 0 workers) ]
    else
      match Array.find_opt (fun w -> track_of_eid w.eid = track) workers with
      | Some w -> [ ("queue_depth", w.live); ("epc.resident", Epc.resident_of epc w.eid) ]
      | None -> []

(* Perfetto counter tracks, one per series track, emitted live as each
   window closes (no-op without an attached recorder). *)
let on_close obs ~track (w : Timeseries.window) =
  Obs.emit_counter obs ~cat:"slo" ("slo." ^ track)
    [ ("requests", w.Timeseries.w_count); ("p50_ns", w.w_p50_ns);
      ("p99_ns", w.w_p99_ns); ("overs", w.w_overs) ]

let stats_of f ~window_ns =
  let cfg = f.cfg and obs = f.obs and epc = f.machine.Machine.epc in
  let ledger = Machine.ledger f.machine in
  let n = cfg.requests in
  let final_now = now f in
  let elapsed_ns = final_now - f.t0 in
  (* close the series through the window holding the last completion
     (now + 1 so a completion landing exactly on a boundary closes) *)
  Timeseries.finish f.series ~now:(final_now + 1);
  let windows = Timeseries.windows f.series ~track:fleet_track in
  let sketch =
    match Timeseries.sketch f.series ~track:fleet_track with
    | Some s -> s
    | None -> Sketch.create ()
  in
  let sq p = Option.value (Sketch.quantile sketch p) ~default:0 in
  let served = Sketch.count sketch in
  let requests_log =
    Array.map
      (function Some r -> r | None -> invalid_arg "Serve.run: request never served")
      f.log
  in
  (* retained mode: exact nearest-rank percentiles and the p99
     exemplars over the served records in latency order (ties by rid);
     streaming mode retains no records, so p50/p99 are the sketch
     estimates (within alpha) and there are no exemplars *)
  let by_latency =
    Array.of_seq (Seq.filter (fun r -> r.outcome = Served) (Array.to_seq requests_log))
  in
  Array.sort
    (fun a b ->
      match compare (latency_ns a) (latency_ns b) with 0 -> compare a.rid b.rid | c -> c)
    by_latency;
  let exact = Array.map latency_ns by_latency in
  let pct q = if cfg.retain_requests then percentile exact q else sq q in
  let recoveries = Array.of_list f.recoveries in
  Array.sort compare recoveries;
  let ecalls = Obs.value obs "sgx.ecall" and ocalls = Obs.value obs "sgx.ocall" in
  let per_s x = if elapsed_ns = 0 then 0. else float_of_int x /. (float_of_int elapsed_ns /. 1e9) in
  let per_worker g = Array.to_list (Array.map (fun w -> (w.eid, g w)) f.workers) in
  {
    requests = n;
    enclaves = cfg.enclaves;
    batch = cfg.batch;
    elapsed_ns;
    idle_ns = Ledger.ns ledger "serve.idle";
    throughput_rps = per_s n;
    mean_ns = (if served = 0 then 0 else Sketch.sum sketch / served);
    p50_ns = pct 0.50;
    p99_ns = pct 0.99;
    max_ns = Sketch.vmax sketch;
    batches = f.batches;
    ecalls;
    ocalls;
    transitions_per_request =
      (if n = 0 then 0. else float_of_int (2 * (ecalls + ocalls)) /. float_of_int n);
    ecall_ns = Ledger.ns ledger "sgx.transition.ecall";
    epc_faults = Obs.value obs "epc.fault";
    epc_evictions = Obs.value obs "epc.evict";
    epc_limit_pages = Epc.limit_pages epc;
    epc_resident_pages = Epc.resident_pages epc;
    evictions_by_enclave =
      Array.to_list
        (Array.mapi (fun i w -> (w.eid, Epc.evictions_of epc w.eid - f.evict0.(i))) f.workers);
    retired_enclaves = List.sort compare f.retired;
    requests_log;
    attributed_ns = f.attr.attributed;
    unattributed_ns = f.attr.idle;
    failover_ns = f.attr.failover;
    attribution_residue_ns = 0;  (* set by [run], from [attribution] *)
    served;
    shed = Obs.value obs "serve.shed";
    timed_out = Obs.value obs "serve.timeout";
    failed = Obs.value obs "serve.failed";
    retries = Obs.value obs "serve.retry";
    failovers = Obs.value obs "serve.failover";
    recovery_p99_ns = percentile recoveries 0.99;
    goodput_rps = per_s served;
    availability_ppm = (if n = 0 then 1_000_000 else served * 1_000_000 / n);
    cross_refaults = Obs.value obs "epc.refault.cross";
    interference_by_evictor = List.sort compare f.attr.by_evictor;
    p99_exemplar_rids = p99_exemplars by_latency;
    sampler_samples = f.samples;
    queue_depth_hwm = Array.fold_left (fun a w -> max a w.depth_hwm) 0 f.workers;
    queue_depth_hwm_by_enclave = per_worker (fun w -> w.depth_hwm);
    epc_resident_by_enclave = per_worker (fun w -> Epc.resident_of epc w.eid);
    retained = cfg.retain_requests;
    t0_ns = f.t0;
    window_ns;
    series = f.series;
    windows;
    sketch;
    sketch_p50_ns = sq 0.5;
    sketch_p99_ns = sq 0.99;
    slo = Option.map (fun spec -> (spec, Slo.evaluate spec windows)) cfg.slo;
    sqlstats_by_enclave =
      List.sort (fun (a, _) (b, _) -> compare a b) (per_worker (fun w -> w.sqlstats));
    sqlstats_fleet =
      Array.fold_left (fun acc w -> Sqlstat.merge acc w.sqlstats) (Sqlstat.create ()) f.workers;
    ledger = Ledger.snapshot ledger;
    machine = f.machine;
  }

let run ?(prepare = fun (_ : Machine.t) -> ()) (cfg : config) =
  if cfg.enclaves <= 0 then invalid_arg "Serve.run: enclaves <= 0";
  if cfg.batch <= 0 then invalid_arg "Serve.run: batch <= 0";
  let window_ns =
    match cfg.slo with Some s -> s.Slo.window_ns | None -> cfg.window_ns
  in
  if window_ns <= 0 then invalid_arg "Serve.run: window_ns <= 0";
  let machine = Machine.create ~epc_bytes:cfg.epc_bytes ~seed:cfg.seed () in
  let backings = Array.init cfg.enclaves (fun _ -> Twine_ipfs.Backing.memory ()) in
  let workers =
    Array.init cfg.enclaves (fun i -> make_worker cfg machine ~backing:backings.(i) ())
  in
  Array.iter (populate cfg) workers;
  (* Arrivals are pulled lazily from the workload stream in both modes
     (the generator never touches the machine, so laziness cannot move
     the virtual timeline): retained and streaming runs schedule the
     exact same events and replay byte-identical books. *)
  let next_arrival = Workload.stream ~seed:cfg.seed (shape_of cfg) in
  (* Setup (launch, population) is not the measurement: restart the
     books so the serving phase audits clean on its own. The EPC keeps
     its resident set — workers start warm, as a real fleet would. *)
  let obs = Machine.obs machine and epc = machine.Machine.epc in
  Ledger.reset (Machine.ledger machine);
  Obs.reset obs;
  let evict0 = Array.map (fun w -> Epc.evictions_of epc w.eid) workers in
  let attr = attach machine in
  prepare machine;
  let t0 = Machine.now_ns machine in
  (* Arm the chaos schedule only now: setup is not under test, and spec
     windows are relative to the serving phase. *)
  Option.iter
    (fun spec -> Machine.arm_faults machine (Twine_sim.Chaos.to_plan ~t0 spec))
    cfg.chaos;
  let completed = ref 0 in
  let series =
    Timeseries.create
      ?threshold_ns:(Option.map (fun s -> s.Slo.threshold_ns) cfg.slo)
      ~probe:(probe ~obs ~epc ~workers ~completed)
      ~on_close:(on_close obs) ~t0 ~window_ns ()
  in
  let f =
    {
      cfg; machine; obs; tracer = Obs.tracer obs; attr; t0; backings; workers;
      evict0; retired = []; arrivals = Twine_sim.Eventq.create (); next_arrival;
      lookahead = next_arrival (); timers = Twine_sim.Eventq.create ();
      rstate = Hashtbl.create 64;
      jitter =
        Twine_crypto.Drbg.create ~personalization:"serve-backoff" ~seed:cfg.seed ();
      pending = 0; rr = 0; batches = 0; recoveries = []; samples = 0;
      next_sample = t0 + cfg.sample_every_ns; series;
      log = (if cfg.retain_requests then Array.make cfg.requests None else [||]);
      completed;
      exec = Machine.meter machine ~account:"serve.exec" "serve.sql";
      pager = Machine.meter machine ~account:"serve.pager" "serve.sql";
      idle = Machine.meter machine ~account:"serve.idle" "serve.idle";
      batch_fill = Obs.histogram obs "serve.batch_fill";
    }
  in
  while !completed < cfg.requests do
    drain f;
    sample f;
    if f.pending = 0 then sleep f else dispatch f
  done;
  (* closing the workers' databases is teardown: neither attributed nor
     under the chaos schedule *)
  detach machine;
  Machine.disarm_faults machine;
  let stats = stats_of f ~window_ns in
  Array.iter (fun w -> Db.close w.db) f.workers;
  { stats with attribution_residue_ns = Audit.residue (attribution stats) }

(* Thread-name metadata for {!Twine_obs.Trace_export}: one request
   track per enclave, in enclave-id order. *)
let threads (s : stats) =
  List.map
    (fun (eid, _) -> (request_track eid, Printf.sprintf "enclave %d requests" eid))
    s.evictions_by_enclave

(* --- tail-latency blame --- *)

let dominant r =
  List.fold_left
    (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("queue", min_int) (components r)

type blame = { b_request : request; b_dominant : string; b_dominant_ns : int }

let by_latency_desc a b =
  match compare (latency_ns b) (latency_ns a) with
  | 0 -> compare a.rid b.rid
  | c -> c

(* Per-request views need the request log; a streaming run dropped it
   by design. Raise a clear error the CLI maps to exit 2. *)
let require_retained what (s : stats) =
  if not s.retained then
    invalid_arg
      (Printf.sprintf
         "Serve.%s: per-request retention is off (--stream); re-run without \
          --stream for per-request views"
         what)

let blame ?(top = 10) (s : stats) =
  require_retained "blame" s;
  let reqs = Array.copy s.requests_log in
  Array.sort by_latency_desc reqs;
  Array.to_list (Array.sub reqs 0 (min top (Array.length reqs)))
  |> List.map (fun r ->
         let d, v = dominant r in
         { b_request = r; b_dominant = d; b_dominant_ns = v })

(* Dominant-account census over the p99 tail (the slowest 1%, at least
   one request): the aggregate answer to "why is p99 what it is". *)
let blame_summary (s : stats) =
  require_retained "blame_summary" s;
  let n = Array.length s.requests_log in
  if n = 0 then []
  else begin
    let reqs = Array.copy s.requests_log in
    Array.sort by_latency_desc reqs;
    let k = max 1 (n / 100) in
    let counts = ref [] in
    for i = 0 to k - 1 do
      let d, _ = dominant reqs.(i) in
      counts := bump_assoc !counts d 1
    done;
    List.sort
      (fun (an, av) (bn, bv) ->
        match compare bv av with 0 -> compare an bn | c -> c)
      !counts
  end

let render_interference l =
  if l = [] then "-"
  else String.concat "," (List.map (fun (e, c) -> Printf.sprintf "e%d:%d" e c) l)

let render_blame ?(top = 10) (s : stats) =
  require_retained "render_blame" s;
  let b = Buffer.create 1024 in
  let f fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  f "-- serve blame: top %d of %d requests by latency --\n"
    (min top (Array.length s.requests_log))
    (Array.length s.requests_log);
  f "%5s %8s %4s %-9s %12s %12s %12s %-10s %s\n" "rank" "rid" "enc" "kind"
    "lat(ns)" "queue(ns)" "service(ns)" "dominant" "interference";
  List.iteri
    (fun i { b_request = r; b_dominant = d; b_dominant_ns = v } ->
      f "%5d %8d %4d %-9s %12d %12d %12d %-10s %s\n" (i + 1) r.rid r.enclave
        r.kind (latency_ns r) (queue_ns r) (service_ns r)
        (Printf.sprintf "%s:%d" d v)
        (render_interference r.interference))
    (blame ~top s);
  f "p99 tail dominants:";
  List.iter (fun (name, c) -> f " %s=%d" name c) (blame_summary s);
  f "\n";
  f "p99 exemplar rids:";
  List.iter (fun rid -> f " %d" rid) s.p99_exemplar_rids;
  f "\n";
  f "%s\n" (Audit.render (attribution s));
  f "cross-enclave refaults: %d" s.cross_refaults;
  List.iter
    (fun (e, c) -> f " by-e%d=%d" e c)
    s.interference_by_evictor;
  f "\n";
  Buffer.contents b

(* --- canonical request-trace text (byte-identical across replays) --- *)

let request_trace_schema = "twine-request-trace/v2"

let render_requests (s : stats) =
  require_retained "render_requests" s;
  let b = Buffer.create 4096 in
  let f fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  f "# %s\n" request_trace_schema;
  f "# rid enclave kind outcome attempts arrival start finish queue retry \
     transition exec pager epc_fault epc_evict crypto other interference\n";
  Array.iter
    (fun r ->
      f "%d %d %s %s %d %d %d %d %d %d %d %d %d %d %d %d %d %s\n" r.rid
        r.enclave r.kind (outcome_name r.outcome) r.attempts r.arrival_ns
        r.start_ns r.finish_ns (queue_ns r) r.retry_wait_ns
        r.breakdown.transition_ns r.breakdown.exec_ns r.breakdown.pager_ns
        r.breakdown.epc_fault_ns r.breakdown.epc_evict_ns
        r.breakdown.crypto_ns r.breakdown.other_ns
        (render_interference r.interference))
    s.requests_log;
  Buffer.contents b

let render (s : stats) =
  let b = Buffer.create 512 in
  let f fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  f "serve: %d requests over %d enclaves (batch <= %d)\n" s.requests s.enclaves
    s.batch;
  f "  elapsed          %d ns (idle %d ns)\n" s.elapsed_ns s.idle_ns;
  f "  throughput       %.0f req/s\n" s.throughput_rps;
  f "  latency          p50 %d ns  p99 %d ns  mean %d ns  max %d ns\n" s.p50_ns
    s.p99_ns s.mean_ns s.max_ns;
  f "  batches          %d (%.2f req/batch)\n" s.batches
    (if s.batches = 0 then 0. else float_of_int s.requests /. float_of_int s.batches);
  f "  transitions      %d ecalls, %d ocalls (%.3f one-way/req)\n" s.ecalls
    s.ocalls s.transitions_per_request;
  f "  ecall cycles     %d ns booked to sgx.transition.ecall\n" s.ecall_ns;
  f "  epc              %d/%d pages resident, %d faults, %d evictions\n"
    s.epc_resident_pages s.epc_limit_pages s.epc_faults s.epc_evictions;
  f "  evictions by enclave:";
  List.iter (fun (id, v) -> f " e%d=%d" id v) s.evictions_by_enclave;
  f "\n";
  f "  audit            %s\n" (Audit.render (attribution s));
  f "  outcomes         %d served, %d shed, %d timed out, %d failed\n" s.served
    s.shed s.timed_out s.failed;
  f "  resilience       %d retries, %d failovers (recovery p99 %d ns)\n"
    s.retries s.failovers s.recovery_p99_ns;
  f "  goodput          %.0f req/s (availability %d.%04d%%)\n" s.goodput_rps
    (s.availability_ppm / 10_000)
    (s.availability_ppm mod 10_000);
  f "  interference     %d cross-enclave refaults\n" s.cross_refaults;
  f "  sampler          %d samples, queue depth high-water %d\n"
    s.sampler_samples s.queue_depth_hwm;
  f "  windows          %d x %d ns, sketch p50 %d ns p99 %d ns%s\n"
    (List.length s.windows) s.window_ns s.sketch_p50_ns s.sketch_p99_ns
    (if s.retained then "" else " (streaming: no per-request log)");
  (match s.slo with
  | None -> ()
  | Some (spec, ev) ->
      f "  slo              %s: %s (burn %d.%03dx, %d/%d over, %d violating \
         windows, %d fast / %d slow alerts)\n"
        (Twine_obs.Slo.render spec)
        (if ev.Twine_obs.Slo.ev_violated then "VIOLATED" else "met")
        (ev.Twine_obs.Slo.ev_burn_x1000 / 1000)
        (ev.Twine_obs.Slo.ev_burn_x1000 mod 1000)
        ev.Twine_obs.Slo.ev_overs ev.Twine_obs.Slo.ev_total
        (List.length ev.Twine_obs.Slo.ev_violations)
        (List.length
           (List.filter
              (fun a -> a.Twine_obs.Slo.al_kind = `Fast)
              ev.Twine_obs.Slo.ev_alerts))
        (List.length
           (List.filter
              (fun a -> a.Twine_obs.Slo.al_kind = `Slow)
              ev.Twine_obs.Slo.ev_alerts));
      match ev.Twine_obs.Slo.ev_first_slow_ns with
      | Some t -> f "  slow-burn onset  %d ns into the run\n" (t - s.t0_ns)
      | None -> ());
  Buffer.contents b

(* --- canonical windowed-series artifact (byte-identical across modes) --- *)

let slo_schema = "twine-slo/v1"

(* Everything in the artifact is mode-independent — windows, sketch,
   spec and verdict are identical whether the run retained its request
   log or streamed — so retained-vs-stream byte equality is a CI-
   checkable invariant, and same (seed, config) replays are too. *)
let render_slo (s : stats) =
  let num i = Twine_obs.Json.Num (float_of_int i) in
  let assoc kvs = Twine_obs.Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let window (w : Twine_obs.Timeseries.window) =
    Twine_obs.Json.Obj
      [
        ("index", num w.Twine_obs.Timeseries.w_index);
        ("start_ns", num w.w_start_ns);
        ("end_ns", num w.w_end_ns);
        ("count", num w.w_count);
        ("sum_ns", num w.w_sum_ns);
        ("max_ns", num w.w_max_ns);
        ("p50_ns", num w.w_p50_ns);
        ("p99_ns", num w.w_p99_ns);
        ("overs", num w.w_overs);
        ("comps", assoc w.w_comps);
        ("gauges", assoc w.w_gauges);
      ]
  in
  (* fleet first, then the enclave tracks in enclave-id order: the live
     enclaves and every enclave failover replaced *)
  let track_names =
    fleet_track
    :: List.map track_of_eid
         (List.sort compare
            (s.retired_enclaves @ List.map fst s.epc_resident_by_enclave))
  in
  let track name =
    Twine_obs.Json.Obj
      [
        ("track", Str name);
        ( "windows",
          Arr (List.map window (Twine_obs.Timeseries.windows s.series ~track:name))
        );
      ]
  in
  Twine_obs.Json.to_string
    (Twine_obs.Json.Obj
       [
         ("schema", Str slo_schema);
         ("t0_ns", num s.t0_ns);
         ("window_ns", num s.window_ns);
         ("requests", num s.requests);
         ( "spec",
           match s.slo with
           | Some (spec, _) -> Twine_obs.Slo.spec_to_json spec
           | None -> Null );
         ( "eval",
           match s.slo with
           | Some (_, ev) -> Twine_obs.Slo.eval_to_json ev
           | None -> Null );
         ("sketch", Twine_obs.Sketch.to_json s.sketch);
         ("tracks", Arr (List.map track track_names));
       ])

let sqlstats_schema = "twine-sqlstats/v1"

(* The query-stats artifact is accumulated on the shared serving path
   (both retained and --stream runs execute the same serve_one), so for
   a fixed (seed, config) the rendered JSON is byte-identical across
   modes — checked with [cmp] in CI. Fleet first, then per-enclave
   registries in enclave-id order. *)
let render_sqlstats (s : stats) =
  let num i = Twine_obs.Json.Num (float_of_int i) in
  Twine_obs.Json.to_string
    (Twine_obs.Json.Obj
       [
         ("schema", Str sqlstats_schema);
         ("requests", num s.requests);
         ("enclaves", num s.enclaves);
         ("fleet", Sqlstat.to_json s.sqlstats_fleet);
         ( "by_enclave",
           Arr
             (List.map
                (fun (eid, reg) ->
                  Twine_obs.Json.Obj
                    [ ("enclave", num eid); ("stats", Sqlstat.to_json reg) ])
                s.sqlstats_by_enclave) );
       ])
