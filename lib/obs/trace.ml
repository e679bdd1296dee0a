(* Flight recorder: a bounded ring buffer of timestamped structured
   events on the simulator's virtual clock.

   Where the registry in {!Obs} answers "what did this run cost in
   aggregate", the recorder answers "when, and in what order": every
   span begin/end, enclave transition, EPC fault, cache miss or
   hostcall is appended as one event, and {!Trace_export} turns the
   buffer into a Chrome trace-event / Perfetto timeline. The buffer is
   a fixed-capacity ring so a tracing run has bounded memory: once it
   wraps, the oldest events are overwritten and only counted. When the
   recorder is disabled (or no recorder is attached to the registry at
   all) the hot paths reduce to a single branch. *)

type phase = Begin | End | Instant | Counter

type event = {
  ts : int;  (* virtual ns *)
  name : string;
  cat : string;
  phase : phase;
  args : (string * int) list;
}

let dummy_event = { ts = 0; name = ""; cat = ""; phase = Instant; args = [] }

type t = {
  now : unit -> int;
  capacity : int;
  buf : event array;
  mutable head : int;  (* next write slot *)
  mutable total : int;  (* events ever recorded *)
  mutable lost : int;  (* events overwritten by wrap, across clears *)
  mutable hwm : int;  (* most events ever held at once (survives clear) *)
  mutable enabled : bool;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) ?(enabled = true) ~now () =
  if capacity < 1 then invalid_arg "Trace.create: capacity below 1";
  { now; capacity; buf = Array.make capacity dummy_event; head = 0; total = 0;
    lost = 0; hwm = 0; enabled }

let set_enabled t on = t.enabled <- on
let capacity t = t.capacity

let record t ~cat ~phase ?(args = []) name =
  if t.enabled then begin
    if t.total >= t.capacity then t.lost <- t.lost + 1;
    t.buf.(t.head) <- { ts = t.now (); name; cat; phase; args };
    t.head <- (t.head + 1) mod t.capacity;
    t.total <- t.total + 1;
    let held = min t.total t.capacity in
    if held > t.hwm then t.hwm <- held
  end

let instant t ~cat ?args name = record t ~cat ~phase:Instant ?args name
let begin_span t ~cat ?args name = record t ~cat ~phase:Begin ?args name
let end_span t ~cat ?args name = record t ~cat ~phase:End ?args name
let counter t ~cat name args = record t ~cat ~phase:Counter ~args name

let total t = t.total
let length t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)
let lost t = t.lost
let high_water t = t.hwm

let clear t =
  t.head <- 0;
  t.total <- 0

(* Oldest-to-newest. After a wrap the oldest surviving event sits at
   [head] (the slot about to be overwritten next). *)
let events t =
  let n = length t in
  let first = if t.total <= t.capacity then 0 else t.head in
  List.init n (fun i -> t.buf.((first + i) mod t.capacity))
