(* Telemetry registry: counters, histograms and span tracing.

   One registry instance rides on each simulated machine; every layer of
   the stack (SGX transitions, EPC paging, protected-FS cache, WASI
   dispatch, the database pager, the Wasm engine) records into it so a
   single run can answer "what did this cost and why". Spans are timed
   on the simulator's *virtual* clock, injected as a [now] closure, so
   nesting attribution is exact and deterministic. *)

(* Counters and histograms are cells, resolved by name into handles.
   [reset] zeroes them in place, so handles stay valid; the snapshots
   list the cells touched since ([c_live], or a non-empty sketch). *)
type counter = { mutable c_value : int; mutable c_live : bool }
type histogram = Sketch.t ref

type span = {
  mutable sp_count : int;
  mutable sp_total_ns : int;  (* virtual time inside the span *)
  mutable sp_self_ns : int;  (* total minus time inside child spans *)
}

type frame = {
  fr_span : span;
  fr_name : string;
  fr_start : int;
  mutable fr_child_ns : int;
}

type t = {
  now : unit -> int;
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  spans : (string, span) Hashtbl.t;
  mutable stack : frame list;
  mutable tracer : Trace.t option;
}

let create ?(now = fun () -> 0) () =
  {
    now;
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 32;
    spans = Hashtbl.create 16;
    stack = [];
    tracer = None;
  }

let reset t =
  Hashtbl.iter (fun _ c -> c.c_value <- 0; c.c_live <- false) t.counters;
  Hashtbl.iter (fun _ h -> h := Sketch.create ()) t.histograms;
  Hashtbl.reset t.spans;
  t.stack <- []

(* --- flight recorder attachment --- *)

let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

let emit t ~cat ?args name =
  match t.tracer with Some tr -> Trace.instant tr ~cat ?args name | None -> ()

let emit_counter t ~cat name args =
  match t.tracer with Some tr -> Trace.counter tr ~cat name args | None -> ()

(* --- counters --- *)

let cell tbl name fresh =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
      let c = fresh () in
      Hashtbl.add tbl name c;
      c

let counter t name = cell t.counters name (fun () -> { c_value = 0; c_live = false })

let add c n = c.c_value <- c.c_value + n; c.c_live <- true

let inc c = add c 1

let value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c_value | None -> 0

(* --- histograms --- *)

(* A histogram is a Sketch: exact count/sum/min/max, quantiles within
   Sketch.alpha. A rejected (negative) sample records nothing, and an
   empty histogram is not listed. *)
let histogram t name = cell t.histograms name (fun () -> ref (Sketch.create ()))
let observe h v = Sketch.insert !h v

type hstat = { count : int; sum : int; min : int; max : int }

let stat_of h =
  let s = !h in
  { count = Sketch.count s; sum = Sketch.sum s; min = Sketch.vmin s; max = Sketch.vmax s }

let live h = Sketch.count !h > 0

let live_histogram t name =
  match Hashtbl.find_opt t.histograms name with Some h when live h -> Some h | _ -> None

let hstat t name = Option.map stat_of (live_histogram t name)

let quantile t name q =
  if q < 0. || q > 1. then invalid_arg "Obs.quantile: q outside [0,1]";
  Option.bind (live_histogram t name) (fun h -> Sketch.quantile !h q)

(* --- spans --- *)

let span_cell t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
      let s = { sp_count = 0; sp_total_ns = 0; sp_self_ns = 0 } in
      Hashtbl.add t.spans name s;
      s

let push_frame t name =
  let sp = span_cell t name in
  let fr = { fr_span = sp; fr_name = name; fr_start = t.now (); fr_child_ns = 0 } in
  t.stack <- fr :: t.stack;
  (match t.tracer with
  | Some tr -> Trace.begin_span tr ~cat:"span" name
  | None -> ());
  fr

(* Close the topmost frame: account its elapsed time to the span and to
   the parent's child time, and emit the matching trace End event. *)
let close_top t ~now =
  match t.stack with
  | [] -> ()
  | fr :: rest ->
      t.stack <- rest;
      let elapsed = now - fr.fr_start in
      let sp = fr.fr_span in
      sp.sp_count <- sp.sp_count + 1;
      sp.sp_total_ns <- sp.sp_total_ns + elapsed;
      sp.sp_self_ns <- sp.sp_self_ns + (elapsed - fr.fr_child_ns);
      (match rest with
      | parent :: _ -> parent.fr_child_ns <- parent.fr_child_ns + elapsed
      | [] -> ());
      (match t.tracer with
      | Some tr -> Trace.end_span tr ~cat:"span" fr.fr_name
      | None -> ())

(* Close [fr] and, first, every frame still open above it. An exit that
   skips nested exits (a continuation unwinding past inner spans) must
   close the skipped frames too — popping [fr] alone would silently drop
   their elapsed time from every ancestor's child accounting and corrupt
   self-time attribution. If [fr] is not on the stack at all (already
   closed by an outer out-of-order exit), do nothing. *)
let close_frame t fr =
  if List.memq fr t.stack then begin
    let now = t.now () in
    let rec pop () =
      match t.stack with
      | [] -> ()
      | top :: _ ->
          close_top t ~now;
          if top != fr then pop ()
    in
    pop ()
  end

let in_span t name f =
  let fr = push_frame t name in
  Fun.protect ~finally:(fun () -> close_frame t fr) f

let open_span t name = ignore (push_frame t name)

let close_span t name =
  match List.find_opt (fun fr -> fr.fr_name = name) t.stack with
  | Some fr -> close_frame t fr
  | None -> ()

type sstat = { calls : int; total_ns : int; self_ns : int }

let sstat t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> Some { calls = s.sp_count; total_ns = s.sp_total_ns; self_ns = s.sp_self_ns }
  | None -> None

let depth t = List.length t.stack

(* --- snapshots (sorted by name, for stable reports and tests) --- *)

let sorted_fold tbl keep f =
  Hashtbl.fold (fun k v acc -> if keep v then (k, f v) :: acc else acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_fold t.counters (fun c -> c.c_live) (fun c -> c.c_value)

let histograms t = sorted_fold t.histograms live stat_of

let spans t =
  sorted_fold t.spans (fun _ -> true) (fun s ->
      { calls = s.sp_count; total_ns = s.sp_total_ns; self_ns = s.sp_self_ns })
