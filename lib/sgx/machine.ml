open Twine_sim

type t = {
  clock : Clock.t;
  obs : Twine_obs.Obs.t;
  ledger : Twine_obs.Ledger.t;
  mutable costs : Costs.t;
  mutable cycle_carry : float;
  epc : Epc.t;
  cpu_key : string;
  mutable next_enclave_id : int;
  mutable faults : Fault.plan option;
}

let usable_epc_bytes = 93 * 1024 * 1024 (* paper §V-A: 128 MiB EPC, 93 usable *)

let create ?(costs = Costs.default) ?(epc_bytes = usable_epc_bytes)
    ?(seed = "twine-machine") () =
  let clock = Clock.create () in
  let obs = Twine_obs.Obs.create () in
  {
    clock;
    obs;
    ledger = Twine_obs.Ledger.create ~now:(fun () -> Clock.now_ns clock) ();
    costs;
    cycle_carry = 0.;
    epc = Epc.create ~obs ~limit_bytes:epc_bytes ();
    cpu_key = Twine_crypto.Sha256.digest ("cpu-fuse:" ^ seed);
    next_enclave_id = 1;
    faults = None;
  }

(* The ONLY Clock.advance call site in the library: every nanosecond of
   virtual time passes through here, so booking each charge into the
   ledger makes the conservation audit (elapsed = booked) structural. *)
let charge t acct ns =
  Clock.advance t.clock ns;
  Twine_obs.Ledger.book t.ledger acct ns;
  match Twine_obs.Obs.tracer t.obs with
  | None -> ()
  | Some _ ->
      Twine_obs.Obs.emit_counter t.obs ~cat:"ledger" (Twine_obs.Ledger.track acct)
        [ ("ns", Twine_obs.Ledger.balance acct) ]

let charge_cycles t acct cycles =
  let ns, carry =
    Costs.cycles_ns_rem t.costs ~carry:t.cycle_carry cycles
  in
  t.cycle_carry <- carry;
  charge t acct ns

let now_ns t = Clock.now_ns t.clock

let obs t = t.obs

let ledger t = t.ledger

(* Create a flight recorder on the machine's virtual clock and hang it
   off the telemetry registry, so every instrumented layer starts
   emitting timeline events. *)
let attach_tracer ?capacity t =
  let tr = Twine_obs.Trace.create ?capacity ~now:(fun () -> Clock.now_ns t.clock) () in
  Twine_obs.Obs.set_tracer t.obs (Some tr);
  tr

let set_software_mode t = t.costs <- Costs.software_mode t.costs

(* Fault-plane wiring: every injection books into a [fault.<site>]
   ledger account on this machine (a [Delay] charges its virtual ns,
   everything else books a zero-ns event so the account still appears in
   reports) and lands in the trace ring, keeping the conservation audit
   balanced under injection. *)
let arm_faults t plan =
  Fault.arm plan
    ~now:(fun () -> Clock.now_ns t.clock)
    ~notify:(fun (inj : Fault.injection) ->
      let ns = match inj.Fault.action with Fault.Delay n -> n | _ -> 0 in
      charge t (Twine_obs.Ledger.account t.ledger ("fault." ^ inj.Fault.site)) ns;
      Twine_obs.Obs.inc (Twine_obs.Obs.counter t.obs "fault.injected");
      Twine_obs.Obs.emit t.obs ~cat:"fault"
        ~args:[ ("op", inj.Fault.op) ]
        ("fault." ^ inj.Fault.site));
  t.faults <- Some plan

let disarm_faults t = t.faults <- None

let fault t site =
  match t.faults with None -> None | Some p -> Fault.consult p site
