open Twine_crypto
module Obs = Twine_obs.Obs
module Ledger = Twine_obs.Ledger

type t = {
  machine : Machine.t;
  id : int;
  measurement : string;
  signer : string;
  mutable brk : int;  (* next free enclave address *)
  mutable committed : int;  (* committed bytes *)
  mutable depth : int;  (* ecall nesting depth *)
  mutable transition_count : int;
  mutable destroyed : bool;
  mutable poisoned : bool;
  drbg : Drbg.t;
  ecalls : Obs.counter;
  ocalls : Obs.counter;
  (* the ledger accounts this enclave charges, resolved at create *)
  ecall_acct : Ledger.account;
  ocall_acct : Ledger.account;
  epc_fault : Ledger.account;
  epc_evict : Ledger.account;
  alloc_acct : Ledger.account;
  commit_acct : Ledger.account;
  reserved_acct : Ledger.account;
  mee_copy : Ledger.account;
  mee_memset : Ledger.account;
}

exception Destroyed
exception Poisoned

let check t =
  if t.destroyed then raise Destroyed;
  if t.poisoned then raise Poisoned

(* Fault sites at the enclave boundary. [Fail] models a transient entry
   failure (out of TCS slots and friends) the caller may retry; [Crash]
   an asynchronous abort that loses the enclave — it stays poisoned, and
   every later entry raises [Poisoned] until the host tears it down. *)
let fault_gate t site =
  let open Twine_sim in
  match Machine.fault t.machine site with
  | None | Some (Fault.Delay _) -> ()
  | Some Fault.Fail -> raise (Fault.Transient site)
  | Some (Fault.Crash | Fault.Torn _ | Fault.Corrupt | Fault.Drop) ->
      t.poisoned <- true;
      raise (Fault.Crashed site)

let fault_pages (t : t) ~addr ~len =
  if len > 0 then begin
    let m = t.machine in
    let first = addr / Costs.page_size and last = (addr + len - 1) / Costs.page_size in
    for page_no = first to last do
      match Epc.touch m.epc (Epc.page_of ~enclave_id:t.id ~page_no) with
      | `Hit -> ()
      | `Fault victim ->
          (* same cost either way; the ledger splits plain page-ins from
             the capacity-pressure path that had to encrypt a page out *)
          let acct = if Option.is_some victim then t.epc_evict else t.epc_fault in
          Machine.charge_cycles m acct m.costs.epc_fault_cycles
    done
  end

(* Enclave-heap counter track beside the EPC residency track: committed
   bytes only ever change here, so the timeline shows heap growth
   aligned with the paging events it causes. No-op without a tracer. *)
let note_heap t =
  Obs.emit_counter t.machine.Machine.obs ~cat:"sgx" "enclave.heap"
    [ ("bytes", t.committed) ]

let create machine ?(signer = "twine-vendor") ?(heap_bytes = 16 * 1024 * 1024)
    ~code () =
  let id = machine.Machine.next_enclave_id in
  machine.next_enclave_id <- id + 1;
  let obs = machine.Machine.obs and resolve = Ledger.account machine.Machine.ledger in
  let t =
    {
      machine;
      id;
      measurement = Sha256.digest ("mrenclave:" ^ code);
      signer = Sha256.digest ("mrsigner:" ^ signer);
      brk = Costs.page_size;  (* keep address 0 unused *)
      committed = 0;
      depth = 0;
      transition_count = 0;
      destroyed = false;
      poisoned = false;
      drbg =
        Drbg.create ~personalization:"sgx-rdrand"
          ~seed:(machine.cpu_key ^ Sha256.digest code ^ string_of_int id)
          ();
      ecalls = Obs.counter obs "sgx.ecall";
      ocalls = Obs.counter obs "sgx.ocall";
      ecall_acct = resolve "sgx.transition.ecall";
      ocall_acct = resolve "sgx.transition.ocall";
      epc_fault = resolve "epc.fault";
      epc_evict = resolve "epc.evict";
      alloc_acct = resolve "sgx.alloc";
      commit_acct = resolve "sgx.commit";
      reserved_acct = resolve "sgx.reserved";
      mee_copy = resolve "mee.copy";
      mee_memset = resolve "mee.memset";
    }
  in
  (* ECREATE, then EADD+EEXTEND for every code and heap page. *)
  let pages = (String.length code + heap_bytes + Costs.page_size - 1) / Costs.page_size in
  let launch = resolve "sgx.launch" in
  Machine.charge machine launch machine.costs.launch_base_ns;
  Machine.charge_cycles machine launch (pages * machine.costs.page_add_cycles);
  t.committed <- String.length code + heap_bytes;
  t.brk <- t.brk + String.length code;
  note_heap t;
  t

let machine t = t.machine
let id t = t.id
let measurement t = t.measurement
let signer t = t.signer
let size_bytes t = t.committed

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    Epc.release_enclave t.machine.epc t.id
  end

(* One enclave-boundary transition (half an ECALL/OCALL round trip).
   The flight recorder gets an instant per transition so the timeline
   shows each boundary crossing, not just the enclosing span. *)
let crossing t acct name =
  t.transition_count <- t.transition_count + 1;
  let obs = t.machine.Machine.obs in
  if Option.is_some (Obs.tracer obs) then
    Obs.emit obs ~cat:"sgx"
      ~args:[ ("enclave", t.id); ("transition", t.transition_count) ]
      (name ^ ".crossing");
  Machine.charge_cycles t.machine acct t.machine.costs.transition_cycles

(* The extent of an ECALL/OCALL body on the flight recorder: a [span]
   Begin after the fault gate, the End before the exit crossing, also
   when the body raises. Without a recorder the body runs bare. *)
let extent t name f x =
  match Obs.tracer t.machine.Machine.obs with
  | None -> f x
  | Some tr ->
      Twine_obs.Trace.begin_span tr ~cat:"span" name;
      Fun.protect ~finally:(fun () -> Twine_obs.Trace.end_span tr ~cat:"span" name)
        (fun () -> f x)

let ecall t ?(name = "sgx.ecall") f =
  check t;
  if t.depth = 0 then begin
    Obs.inc t.ecalls;
    crossing t t.ecall_acct name
  end;
  t.depth <- t.depth + 1;
  Fun.protect
    ~finally:(fun () ->
      t.depth <- t.depth - 1;
      if t.depth = 0 && not t.destroyed then crossing t t.ecall_acct name)
    (fun () ->
      fault_gate t "enclave.ecall";
      extent t name f t)

let ocall t ?(name = "sgx.ocall") f =
  check t;
  if t.depth = 0 then invalid_arg "Enclave.ocall: not inside an ecall";
  Obs.inc t.ocalls;
  crossing t t.ocall_acct name;
  Fun.protect
    ~finally:(fun () -> if not t.destroyed then crossing t t.ocall_acct name)
    (fun () ->
      fault_gate t "enclave.ocall";
      extent t name f ())

let inside t = t.depth > 0
let transitions t = t.transition_count
let poisoned t = t.poisoned

(* The in-enclave allocator is costlier than a host malloc and its cost
   grows with the committed size (§IV-C observed above-linear behaviour
   when enlarging buffers); we charge a base cost plus a per-committed-MiB
   surcharge, then fault the fresh pages in. *)
let alloc t n =
  check t;
  if n < 0 then invalid_arg "Enclave.alloc: negative size";
  let m = t.machine in
  let committed_mib = t.committed / (1024 * 1024) in
  Machine.charge m t.alloc_acct (300 + (20 * committed_mib));
  let addr = t.brk in
  t.brk <- t.brk + n;
  t.committed <- t.committed + n;
  note_heap t;
  fault_pages t ~addr ~len:n;
  addr

(* Reserve address space without committing/faulting pages (used for
   large virtual regions whose pages fault in on first touch). *)
let reserve t n =
  check t;
  if n < 0 then invalid_arg "Enclave.reserve: negative size";
  let addr = t.brk in
  t.brk <- t.brk + n;
  addr

let touch t ~addr ~len =
  check t;
  fault_pages t ~addr ~len

(* EAUG-style commit of pages inside a previously reserved region: charge
   the page-add cost, grow the committed size and fault the pages in,
   without moving brk (the region's addresses are already reserved). *)
let commit t ~addr ~len =
  check t;
  if len < 0 then invalid_arg "Enclave.commit: negative size";
  if len > 0 then begin
    let m = t.machine in
    let pages =
      ((addr + len - 1) / Costs.page_size) - (addr / Costs.page_size) + 1
    in
    Machine.charge_cycles m t.commit_acct (pages * m.costs.page_add_cycles);
    t.committed <- t.committed + len;
    note_heap t;
    fault_pages t ~addr ~len
  end

(* Memory-encryption-engine traffic, at [rate] ns per byte. *)
let mee t acct rate n =
  check t;
  Machine.charge t.machine acct (Costs.bytes_ns (rate t.machine.costs) n)

let memset t n = mee t t.mee_memset (fun c -> c.memset_ns_per_byte) n
let copy_in t n = mee t t.mee_copy (fun c -> c.copy_ns_per_byte) n
let copy_out t n = mee t t.mee_copy (fun c -> c.copy_ns_per_byte) n

let load_reserved t code =
  check t;
  let n = String.length code in
  copy_in t n;
  (* mprotect-style page permission flips on the reserved region *)
  Machine.charge t.machine t.reserved_acct
    (200 * ((n + Costs.page_size - 1) / Costs.page_size));
  let addr = t.brk in
  t.brk <- t.brk + n;
  t.committed <- t.committed + n;
  note_heap t;
  fault_pages t ~addr ~len:n;
  addr

let random t n =
  check t;
  Drbg.generate t.drbg n
