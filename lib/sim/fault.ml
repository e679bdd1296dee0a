(* Deterministic fault injection (see the .mli). A plan holds no
   reference to anything global: the machine that armed it keeps it, and
   each site hands it to [consult]. All randomness comes from a private
   xorshift64* generator seeded from the plan's seed string, so the
   injected sequence is a pure function of (seed, workload). *)

type action =
  | Torn of float
  | Corrupt
  | Drop
  | Fail
  | Crash
  | Delay of int

type rule = {
  r_site : string;
  r_action : action;
  r_nth : int option;
  r_prob : float;
  mutable r_budget : int;  (* injections left; -1 = unlimited *)
  r_count : int;  (* initial budget, to restore on re-arm *)
  r_from_ns : int option;  (* virtual-time activation window [from, until) *)
  r_until_ns : int option;
}

type injection = { site : string; op : int; action : action }

type plan = {
  seed : string;
  rules : rule list;
  ops : (string, int) Hashtbl.t;  (* per-site operation counters *)
  mutable state : int64;  (* PRNG state *)
  mutable log : injection list;  (* reversed *)
  mutable notify : injection -> unit;
  mutable now : (unit -> int) option;
      (* virtual-clock source for windowed rules, installed at arm time *)
}

exception Transient of string
exception Crashed of string

let rule ?nth ?(prob = 0.) ?count ?from_ns ?until_ns site action =
  if prob < 0. || prob > 1. then invalid_arg "Fault.rule: prob out of range";
  (match nth with
  | Some n when n < 1 -> invalid_arg "Fault.rule: nth must be >= 1"
  | _ -> ());
  (match (from_ns, until_ns) with
  | Some a, Some b when b <= a -> invalid_arg "Fault.rule: empty window"
  | _ -> ());
  let count =
    match (count, nth) with
    | Some c, _ -> c
    | None, Some _ -> 1
    | None, None -> -1
  in
  { r_site = site; r_action = action; r_nth = nth; r_prob = prob;
    r_budget = count; r_count = count; r_from_ns = from_ns;
    r_until_ns = until_ns }

(* FNV-1a over the seed string, then mixed, for the initial PRNG state. *)
let hash_seed s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  if !h = 0L then 0x9e3779b97f4a7c15L else !h

let plan ?(seed = "fault") rules =
  {
    seed;
    rules;
    ops = Hashtbl.create 8;
    state = hash_seed seed;
    log = [];
    notify = (fun _ -> ());
    now = None;
  }

(* xorshift64*: tiny, dependency-free, good enough for fault schedules. *)
let next_u64 p =
  let x = p.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  p.state <- x;
  Int64.mul x 0x2545f4914f6cdd1dL

(* Uniform float in [0, 1) from the top 53 bits. *)
let next_float p =
  Int64.to_float (Int64.shift_right_logical (next_u64 p) 11) /. 9007199254740992.

let arm ?(notify = fun _ -> ()) ?now p =
  Hashtbl.reset p.ops;
  p.state <- hash_seed p.seed;
  p.log <- [];
  p.notify <- notify;
  p.now <- now;
  List.iter (fun r -> r.r_budget <- r.r_count) p.rules

let sites =
  [ "enclave.ecall"; "enclave.ocall"; "host.ocall"; "backing.read"; "backing.write" ]

let injections p = List.rev p.log

let fire p r op =
  if r.r_budget > 0 then r.r_budget <- r.r_budget - 1;
  let inj = { site = r.r_site; op; action = r.r_action } in
  p.log <- inj :: p.log;
  p.notify inj;
  Some inj.action

(* A windowed rule is active only while the plan's virtual clock reads
   inside [from, until). Without a clock source (plain [arm], no [now])
   windowed rules never fire — the window is a statement about virtual
   time, and guessing would break replay determinism. The window check
   runs before any PRNG draw, so an out-of-window probabilistic rule
   consumes no randomness: the injected sequence stays a pure function
   of (seed, workload, virtual timeline) across re-arms. *)
let in_window p r =
  match (r.r_from_ns, r.r_until_ns) with
  | None, None -> true
  | from_ns, until_ns -> (
      match p.now with
      | None -> false
      | Some now ->
          let t = now () in
          (match from_ns with Some a -> t >= a | None -> true)
          && (match until_ns with Some b -> t < b | None -> true))

let consult p site =
  let op = 1 + Option.value ~default:0 (Hashtbl.find_opt p.ops site) in
  Hashtbl.replace p.ops site op;
  let rec scan = function
    | [] -> None
    | r :: rest ->
        if
          r.r_site = site && r.r_budget <> 0 && in_window p r
          && (match r.r_nth with
             | Some n -> n = op
             | None -> r.r_prob > 0. && next_float p < r.r_prob)
        then fire p r op
        else scan rest
  in
  scan p.rules

(* Deterministic payload mutilation: the torn length is a fraction of
   the payload, the corrupted bit is picked by hashing the payload so
   the same write is always damaged the same way. *)
let mutilate action data =
  match action with
  | Torn f ->
      let keep = int_of_float (float_of_int (String.length data) *. f) in
      String.sub data 0 (max 0 (min keep (String.length data)))
  | Corrupt ->
      if data = "" then data
      else begin
        let h = Int64.to_int (hash_seed data) land max_int in
        let byte = h mod String.length data in
        let bit = (h / 7) mod 8 in
        let b = Bytes.of_string data in
        Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
        Bytes.to_string b
      end
  | Drop | Fail | Crash | Delay _ -> data
