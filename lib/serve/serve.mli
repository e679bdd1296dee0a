(** Deterministic multi-enclave serving simulator.

    A fleet of TWINE runtimes shares one simulated machine — one virtual
    clock, one EPC, one ledger — and a run-to-completion scheduler
    replays a seeded open-loop workload ({!Workload}) against it,
    coalescing up to [batch] queued requests behind a single ECALL
    ({!Twine.Runtime.serve}) so a batch pays one enclave round-trip.
    Everything is booked through [Machine.charge], so the serving phase
    passes the ledger's conservation audit and a (seed, config) pair
    replays to byte-identical books and tail latencies.

    {2 Per-request attribution}

    Every request carries its workload id ({!Workload.arrival.rid}) as a
    span context from the event queue through queue wait, batch
    assembly, the serving ECALL and everything it nests (SQL execution,
    pager work, EPC paging, protected-FS crypto). While a request is
    live, a {!Twine_obs.Ledger} tap routes {e every} booking into that
    request's {!breakdown}; a batch's entry/exit crossings are split
    evenly across its requests (integer shares, remainder to the first);
    scheduler idle lands in a phase-level bucket. The slices obey a
    structural conservation law with zero residue, which {!attribution}
    audits:

    {v sum of attributed_ns over requests + unattributed_ns (idle)
   + failover_ns = serving-phase booked total = serving-phase elapsed time v}

    and per request [latency = queue wait + service time], with the
    service time exactly equal to the request's direct attribution
    (before overhead shares). {!blame} ranks the tail by dominant
    component; cross-enclave EPC eviction provenance
    ({!Twine_sgx.Epc.set_refault_hook}) names the enclave whose fault
    evicted the pages a tail request had to fault back in. *)

type config = {
  enclaves : int;
  requests : int;
  batch : int;  (** max requests coalesced behind one ECALL; 1 = unbatched *)
  seed : string;
  mean_gap_ns : int;  (** mean client inter-arrival (open loop) *)
  rows : int;  (** per-enclave dataset rows *)
  span : int;  (** range-slice width *)
  payload_bytes : int;
  cache_pages : int;  (** per-enclave page-cache capacity *)
  epc_bytes : int;  (** the machine-wide EPC the fleet contends for *)
  mix : Workload.mix;
  wasm_factor : float;
      (** pinned Wasm slowdown (never wall-clock calibrated here) *)
  ns_per_work : float;
  sample_every_ns : int;
      (** virtual-time metrics sampling period (queue depth, per-enclave
          EPC residency, completed requests as Perfetto counter tracks);
          0 disables the sampler *)
  retain_requests : bool;
      (** keep the per-request log ({!stats.requests_log}, exact
          percentiles, {!blame}). [false] is the [--stream] mode: the
          run folds everything into the windowed series and sketch and
          holds O(windows + sketch) memory, so 10–100x request counts
          replay without O(n) retention — at the cost of the
          per-request views, which then raise [Invalid_argument] *)
  window_ns : int;
      (** tumbling-window period of the SLO plane's series; when [slo]
          is set its [window_ns] takes precedence *)
  slo : Twine_obs.Slo.spec option;
      (** latency objective to evaluate over the windowed series; also
          supplies the over-threshold counting the burn rates need *)
  chaos : Twine_sim.Chaos.spec option;
      (** seeded fault schedule armed for the serving phase only
          (setup/population run clean); spec activation windows are
          relative to the phase start *)
  deadline_ns : int;
      (** client deadline: a request still unserved this long after its
          arrival completes as [Timed_out]; 0 disables deadlines *)
  retries : int;
      (** requeues allowed per request after enclave faults before it
          completes as [Failed] *)
  backoff_ns : int;
      (** retry backoff base: requeue k waits [base * 2^(k-1)] (plus
          deterministic DRBG jitter up to +25%), doubling until it
          reaches 50x the base; 0 retries immediately *)
  hedge : bool;
      (** hedged retries: a requeued request goes to the least-loaded
          enclave instead of back to its home queue (every enclave holds
          an identical dataset, so any slot can serve it) *)
  shed_depth : int;
      (** admission control: an arrival finding its enclave's live queue
          this deep completes as [Shed] without being enqueued; 0
          disables depth shedding *)
}

val default_config : config
(** 100k requests, 8 enclaves, batch 16, 768-page EPC, factor 2.5,
    1 ms virtual sampling, retention on, 50 ms windows, no SLO, no
    chaos, no deadlines/shedding, 2 retries with 100 us base backoff
    capped at 5 ms. *)

val shape_of : config -> Workload.shape

(** {2 Per-request records} *)

type breakdown = {
  mutable transition_ns : int;  (** [sgx.transition.*] *)
  mutable exec_ns : int;  (** [serve.exec] *)
  mutable pager_ns : int;  (** [serve.pager] *)
  mutable epc_fault_ns : int;
  mutable epc_evict_ns : int;
  mutable crypto_ns : int;  (** [ipfs.crypto] + [mee.*] *)
  mutable other_ns : int;  (** everything else (alloc, ipfs.io, ...) *)
}
(** One request's exact cycle slice of the serving-phase ledger, grouped
    by account family. Mutable only while the run is in flight. *)

val breakdown_total : breakdown -> int

(** How a request left the system. Every admitted rid completes with
    exactly one outcome and appears once in the request log; only
    [Served] counts toward goodput. *)
type outcome =
  | Served
  | Shed  (** fast-failed at admission (queue depth) *)
  | Timed_out  (** client deadline passed while queued or backing off *)
  | Failed  (** retry budget exhausted after enclave faults *)

val outcome_name : outcome -> string
(** ["served"], ["shed"], ["timeout"], ["failed"]. *)

type request = {
  rid : int;
  enclave : int;
  kind : string;  (** {!Workload.req_name} *)
  arrival_ns : int;
  start_ns : int;  (** when its batch reached the front and service began *)
  mutable finish_ns : int;
  mutable outcome : outcome;
  mutable attempts : int;
      (** dispatches into a batch (0 for requests shed or expired
          unserved) *)
  mutable retry_wait_ns : int;
      (** total backoff delay scheduled before retries of this request *)
  breakdown : breakdown;
  mutable interference : (int * int) list;
      (** (evictor enclave, cross-enclave refaults this request paid
          for), sorted by enclave id *)
}

val latency_ns : request -> int
(** [finish - arrival]. *)

val queue_ns : request -> int
(** [start - arrival]. *)

val service_ns : request -> int
(** [finish - start]. *)

val attributed_ns : request -> int
(** {!breakdown_total} of the slice. *)

type stats = {
  requests : int;
  enclaves : int;
  batch : int;
  elapsed_ns : int;  (** serving-phase virtual time (setup books dropped) *)
  idle_ns : int;
  throughput_rps : float;
  mean_ns : int;
  p50_ns : int;  (** exact nearest-rank percentiles over served latencies *)
  p99_ns : int;
  max_ns : int;
  batches : int;
  ecalls : int;
  ocalls : int;
  transitions_per_request : float;  (** one-way crossings per request *)
  ecall_ns : int;  (** ledger [sgx.transition.ecall], serving phase *)
  epc_faults : int;
  epc_evictions : int;
  epc_limit_pages : int;
  epc_resident_pages : int;
  evictions_by_enclave : (int * int) list;
      (** [(enclave id, times one of its pages was the eviction victim)] —
          the cross-enclave interference measure of the shared EPC *)
  retired_enclaves : int list;
      (** ids of the enclaves failover replaced, ascending; their series
          tracks stay in {!render_slo} *)
  requests_log : request array;
      (** indexed by rid; every admitted request, any outcome *)
  attributed_ns : int;  (** sum of all requests' cycle slices *)
  unattributed_ns : int;  (** booked outside any batch: scheduler idle *)
  failover_ns : int;
      (** booked to the failure domain: the wasted work of crashed
          batches plus the detect/teardown/relaunch/recover path *)
  attribution_residue_ns : int;
      (** the residue of {!attribution}; 0 is the conservation
          invariant the bench gate pins *)
  served : int;
  shed : int;
  timed_out : int;
  failed : int;
  retries : int;  (** requeues scheduled after failed batches *)
  failovers : int;  (** enclaves lost, destroyed and relaunched *)
  recovery_p99_ns : int;
      (** p99 failover duration — detect through recovered replacement
          (0 when no failover happened) *)
  goodput_rps : float;  (** served requests / elapsed *)
  availability_ppm : int;  (** served per million admitted *)
  cross_refaults : int;
  interference_by_evictor : (int * int) list;
      (** (enclave, refaults its faults inflicted on others) *)
  p99_exemplar_rids : int list;
      (** the served requests at the exact p99 rank and the seven
          below it, slowest first ([[]] when [retained = false]) *)
  sampler_samples : int;
  queue_depth_hwm : int;  (** deepest any enclave's queue ever got *)
  queue_depth_hwm_by_enclave : (int * int) list;
  epc_resident_by_enclave : (int * int) list;  (** at end of run *)
  retained : bool;
      (** [requests_log] populated? [false] under [--stream]: the log
          is empty, [p50_ns]/[p99_ns] carry the sketch estimates, and
          the per-request views raise *)
  t0_ns : int;  (** serving-phase start; window 0 opens here *)
  window_ns : int;  (** effective tumbling-window period *)
  series : Twine_obs.Timeseries.t;
      (** the windowed series: track ["fleet"] plus ["e<id>"] per
          enclave, each with per-window counts, sketch p50/p99,
          breakdown component sums and probed gauges *)
  windows : Twine_obs.Timeseries.window list;
      (** the fleet track's closed windows, ascending *)
  sketch : Twine_obs.Sketch.t;
      (** merge of the per-window fleet sketches — all [requests]
          latencies, mergeable and bounded-memory *)
  sketch_p50_ns : int;
      (** sketch estimate; within {!Twine_obs.Sketch.alpha} relative
          error of the exact [p50_ns] (asserted by [bench serve]) *)
  sketch_p99_ns : int;
  slo : (Twine_obs.Slo.spec * Twine_obs.Slo.eval) option;
      (** the evaluated objective when the config carried one *)
  sqlstats_by_enclave : (int * Twine_sqldb.Sqlstat.t) list;
      (** per-enclave query-stats registries, enclave-id ascending;
          accumulated on the shared serving path, so identical in
          retained and [--stream] runs *)
  sqlstats_fleet : Twine_sqldb.Sqlstat.t;
      (** merge of every enclave's registry *)
  ledger : Twine_obs.Ledger.snapshot;
  machine : Twine_sgx.Machine.t;
}

val run : ?prepare:(Twine_sgx.Machine.t -> unit) -> config -> stats
(** Build the fleet on one fresh machine, populate each enclave's
    database, reset the books (the serving phase audits on its own;
    workers keep their warm EPC pages), call [prepare] (attach a flight
    recorder here; it must not advance the clock), then replay the
    workload to completion.
    @raise Invalid_argument on a non-positive fleet or batch size. *)

val attribution : stats -> Twine_obs.Audit.t
(** The law above over the serving phase (on a chaos run, the chaos law). *)

val render : stats -> string
(** Human-readable summary block, with the {!attribution} audit line. *)

(** {2 Tail-latency blame} *)

type blame = {
  b_request : request;
  b_dominant : string;
      (** ["queue"], ["retry"], ["transition"], ["exec"], ["pager"],
          ["epc.fault"], ["epc.evict"], ["crypto"] or ["other"] — the
          largest component of this request's latency (ties break toward
          that order); ["retry"] is backoff wait carved out of the queue
          component *)
  b_dominant_ns : int;
}

val blame : ?top:int -> stats -> blame list
(** The [top] (default 10) slowest requests, slowest first (ties by
    rid), each with its dominant latency component.
    @raise Invalid_argument when the run streamed ([retained = false]):
    there is no request log to rank. *)

val blame_summary : stats -> (string * int) list
(** Dominant-component census over the p99 tail (the slowest 1%, at
    least one request), most common first (ties by name) — the
    aggregate answer to "why is p99 what it is".
    @raise Invalid_argument when [retained = false]. *)

val render_blame : ?top:int -> stats -> string
(** The blame table plus the tail census, p99 exemplar rids, the
    {!attribution} audit line and cross-enclave refault blame.
    @raise Invalid_argument when [retained = false]. *)

(** {2 Request trace} *)

val request_trace_schema : string

val render_requests : stats -> string
(** Canonical per-request trace: one line per rid with outcome, attempt
    count, timestamps, queue/retry wait and the full cycle slice.
    Byte-identical across replays of the same [(seed, config)] — the
    serialisable artifact of the attribution layer.
    @raise Invalid_argument when [retained = false]. *)

(** {2 Windowed SLO artifact} *)

val slo_schema : string
(** ["twine-slo/v1"]. *)

val render_slo : stats -> string
(** Canonical JSON of the streaming SLO plane: the spec and verdict
    (when an objective was set), the fleet latency sketch
    ([twine-sketch/v1]), and every track's closed windows with
    per-window p50/p99, over-threshold counts, breakdown component
    sums and probed gauges. Mode-independent by construction: the
    retained and [--stream] runs of one [(seed, config)] produce the
    same bytes, and replays are byte-identical — both are CI-gated. *)

val threads : stats -> (int * string) list
(** Thread-name metadata for {!Twine_obs.Trace_export.to_file}: the
    per-enclave request tracks used by the serving-phase spans. *)

(** {2 Query-stats artifact} *)

val sqlstats_schema : string
(** ["twine-sqlstats/v1"]. *)

val render_sqlstats : stats -> string
(** Canonical JSON of the query-stats registry: the fleet-merged view
    followed by each enclave's registry in enclave-id order. Entries
    are keyed by normalized fingerprint and carry execution counts,
    row/work totals, pager I/O, cycle totals and a mergeable latency
    sketch. Accumulated on the shared serving path, so the retained and
    [--stream] runs of one [(seed, config)] produce the same bytes. *)
