(* The TWINE runtime (paper §IV): a Wasm engine hosted inside an SGX
   enclave behind a single ECALL, with the SGX-tailored WASI host and
   code confidentiality via deployment into reserved memory.

   Workflow (Figure 1): the application provider attests the enclave,
   then ships the (AoT-compiled) Wasm module over a protected channel;
   the module never exists in plaintext outside enclave memory. *)

open Twine_sgx
open Twine_ipfs
open Twine_wasm
open Twine_wasi

type engine = Interpreter | Aot

type config = {
  engine : engine;
  strict_wasi : bool;  (* disable the untrusted POSIX layer (§IV-C) *)
  cache_nodes : int;  (* IPFS node cache *)
  ipfs_variant : Protected_fs.variant;
  heap_bytes : int;
}

let default_config =
  {
    engine = Aot;
    strict_wasi = false;
    cache_nodes = 48;
    ipfs_variant = Protected_fs.Stock;
    heap_bytes = 16 * 1024 * 1024;
  }

(* The enclave's measured code identity: runtime, not application (the
   application arrives later over the secure channel). *)
let runtime_code = "twine-runtime: wamr-aot + wasi-sgx + ipfs, v1"

(* The guest linear-memory region inside the enclave. Reserved once per
   runtime (sized for the module's maximum memory) and reused across
   runs, so repeated [run]s do not leak enclave heap; [committed] tracks
   how much of it has been EAUG-committed so far, including pages added
   by [memory.grow] during a run. *)
type mem_region = { base : int; cap : int; committed : int ref }

type t = {
  config : config;
  machine : Machine.t;
  enclave : Enclave.t;
  fs : Protected_fs.t;
  mutable deployed : (Ast.module_ * int) option;  (* module, reserved addr *)
  mutable guest_mem : mem_region option;
  mutable instance : Instance.t option;
      (* the latest run's instance, which holds the context of its trap *)
  aot : Twine_obs.Ledger.account;  (* AoT code generation *)
}

let create ?(config = default_config) ?backing machine =
  let enclave =
    Enclave.create machine ~signer:"twine" ~heap_bytes:config.heap_bytes
      ~code:runtime_code ()
  in
  let backing = match backing with Some b -> b | None -> Twine_sim.Backing.memory () in
  let fs =
    Protected_fs.create enclave backing ~variant:config.ipfs_variant
      ~cache_nodes:config.cache_nodes ()
  in
  { config; machine; enclave; fs; deployed = None; guest_mem = None; instance = None;
    aot = Twine_obs.Ledger.account (Machine.ledger machine) "twine.aot" }

let enclave t = t.enclave
let machine t = t.machine
let fs t = t.fs

let quote t ~data = Attestation.quote t.enclave ~data

(* --- secure deployment (Figure 1) --- *)

exception Deploy_error of string

(* An application provider: holds the Wasm module, verifies the enclave's
   quote against the attestation service and the expected measurement,
   and releases the module encrypted under a fresh channel key. *)
module Provider = struct
  type provider = {
    wasm : string;  (* binary module, confidential *)
    service : Attestation.service;
    expected_measurement : string;
  }

  let create ~wasm ~service =
    {
      wasm;
      service;
      expected_measurement = Twine_crypto.Sha256.digest ("mrenclave:" ^ runtime_code);
    }

  (* The runtime's half of the channel key is bound into the quote's
     report data; the provider returns its half plus the ciphertext. *)
  let deliver p ~(quote : Attestation.quote) ~runtime_pub =
    if not (Attestation.verify_quote p.service ~expected_measurement:p.expected_measurement quote)
    then Error "attestation failed: enclave not trusted"
    else if String.sub quote.body.report_data 0 32 <> Twine_crypto.Sha256.digest runtime_pub
    then Error "channel binding mismatch"
    else begin
      let provider_secret = Twine_crypto.Sha256.digest ("provider-ephemeral:" ^ p.wasm) in
      let shared =
        Twine_crypto.Hmac.derive ~key:(runtime_pub ^ provider_secret)
          ~info:"twine-channel" ~length:16
      in
      let key = Twine_crypto.Gcm.of_raw shared in
      let iv = String.sub (Twine_crypto.Sha256.digest provider_secret) 0 12 in
      let ct, tag = Twine_crypto.Gcm.encrypt key ~iv p.wasm in
      Ok (provider_secret, iv, ct, tag)
    end
end

(* Deploy a module through the attested channel. In the simulation the
   "Diffie-Hellman" is a hash-combined shared secret; what matters for
   the model is the flow: quote -> verify -> encrypted delivery ->
   decrypt inside the enclave -> reserved memory. *)
let deploy_from t (p : Provider.provider) =
  Enclave.ecall t.enclave ~name:"twine.deploy" (fun _ ->
      let runtime_pub = Enclave.random t.enclave 32 in
      let q = quote t ~data:(Twine_crypto.Sha256.digest runtime_pub) in
      match Provider.deliver p ~quote:q ~runtime_pub with
      | Error e -> raise (Deploy_error e)
      | Ok (provider_secret, iv, ct, tag) ->
          let shared =
            Twine_crypto.Hmac.derive ~key:(runtime_pub ^ provider_secret)
              ~info:"twine-channel" ~length:16
          in
          let key = Twine_crypto.Gcm.of_raw shared in
          (match Twine_crypto.Gcm.decrypt key ~iv ~tag ct with
          | None -> raise (Deploy_error "module ciphertext failed authentication")
          | Some wasm_binary ->
              (* into reserved memory: never in untrusted memory in clear *)
              let addr = Enclave.load_reserved t.enclave wasm_binary in
              let module_ =
                try Binary.decode wasm_binary
                with Binary.Decode_error m -> raise (Deploy_error ("bad module: " ^ m))
              in
              Validate.check_module module_;
              t.deployed <- Some (module_, addr)))

(* Deploy a module directly (no provider); still validated and loaded
   into reserved memory. *)
let deploy t (module_ : Ast.module_) =
  Validate.check_module module_;
  Enclave.ecall t.enclave ~name:"twine.deploy" (fun _ ->
      let addr = Enclave.load_reserved t.enclave (Binary.encode module_) in
      t.deployed <- Some (module_, addr))

(* --- execution --- *)

(* Track Wasm linear-memory accesses in the EPC. Consecutive accesses to
   the same 4 KiB page are filtered out before reaching the simulator:
   they would be EPC hits anyway, and the filter keeps the instrumentation
   overhead negligible for loop-local access patterns.

   [committed] is the number of bytes at [base] already committed in the
   enclave; when the guest executes [memory.grow], the next access sees a
   larger memory and the fresh pages are EAUG-committed before the access
   is accounted, so grown memory is not silently free. *)
let install_memory_hook enclave ~base ?committed mem =
  let last_page = ref (-1) in
  let committed =
    match committed with Some c -> c | None -> ref (Memory.size_bytes mem)
  in
  (Memory.on_access mem) :=
    Some
      (fun ~addr ~len ->
        let size = Memory.size_bytes mem in
        if size > !committed then begin
          Enclave.commit enclave ~addr:(base + !committed) ~len:(size - !committed);
          committed := size
        end;
        let page = (base + addr) lsr 12 in
        if page <> !last_page || len > 4096 then begin
          last_page := page;
          Enclave.touch enclave ~addr:(base + addr) ~len
        end)

type run_outcome = {
  exit_code : int;
  stdout : string;
  fuel : int;  (* instructions executed (metered identically by both engines) *)
}

(* Shadow-call-stack hooks for the guest profiler: enter/exit at every
   Wasm activation, feeding the engine's cumulative fuel counter so the
   profiler can attribute instruction deltas. Host functions push no
   frame — their virtual-clock cost lands in the calling Wasm frame. *)
let attach_profile prof machine (module_ : Ast.module_) (inst : Instance.t) =
  Twine_obs.Profile.set_namer prof (fun i ->
      match Ast.func_name module_ i with
      | Some n -> n
      | None -> Printf.sprintf "func[%d]" i);
  (* Route the machine ledger's attribution context through the shadow
     stack: charges landing while a guest frame is live book into that
     frame's row of the function x account matrix. *)
  Twine_obs.Profile.connect_ledger prof (Machine.ledger machine);
  inst.Instance.hooks <-
    Some
      {
        Instance.on_enter =
          (fun i -> Twine_obs.Profile.enter prof ~fuel:inst.Instance.fuel_used i);
        Instance.on_exit =
          (fun i -> Twine_obs.Profile.exit prof ~fuel:inst.Instance.fuel_used i);
      }

let run ?(args = [ "app" ]) ?env ?profile ?fuel_limit t =
  match t.deployed with
  | None -> raise (Deploy_error "no module deployed")
  | Some (module_, _addr) ->
      (* The single ECALL of §IV-C: enter the enclave, start the runtime,
         execute the WASI start routine. *)
      Enclave.ecall t.enclave ~name:"twine.main" (fun _ ->
          let out = Buffer.create 64 in
          let base = Sgx_host.providers ~strict:t.config.strict_wasi t.enclave in
          let providers =
            {
              base with
              Api.stdout =
                (fun s ->
                  base.Api.stdout s;
                  Buffer.add_string out s);
            }
          in
          let preopens = [ (".", Sgx_host.protected_dir t.fs) ] in
          let obs = t.machine.Machine.obs in
          let ctx = Api.create ~args ?env ~preopens ~providers ~obs () in
          (* on record before the start function runs, which may trap *)
          let inst = Instance.build ~imports:(Api.imports ctx) module_ in
          t.instance <- Some inst;
          Option.iter (fun f -> ignore (Interp.call inst f [])) module_.Ast.start;
          (match fuel_limit with
          | Some l ->
              if l < 0 then invalid_arg "Runtime.run: negative fuel limit";
              inst.Instance.fuel_limit <- l
          | None -> ());
          (* charge AoT code generation or set up interpretation *)
          (match t.config.engine with
          | Aot ->
              let n = Aot.compile_instance inst in
              Twine_obs.Obs.add (Twine_obs.Obs.counter obs "twine.aot.funcs") n;
              Twine_obs.Obs.emit obs ~cat:"twine" ~args:[ ("funcs", n) ] "twine.aot";
              Machine.charge t.machine t.aot (n * 1500)
          | Interpreter -> ());
          Api.bind_memory ctx inst;
          (* In-enclave Wasm linear memory participates in EPC pressure.
             The region is reserved once (sized for the module's declared
             maximum so grown pages never collide with later allocations)
             and reused by subsequent runs: only the delta between what is
             already committed and what this run's initial memory needs is
             committed — repeated runs do not leak enclave heap. *)
          let mem = Api.memory ctx in
          let need = Memory.size_bytes mem in
          let region =
            match t.guest_mem with
            | Some r when r.cap >= need -> r
            | _ ->
                let cap = max need (Memory.max_pages mem * Types.page_size) in
                let base = Enclave.reserve t.enclave cap in
                let r = { base; cap; committed = ref 0 } in
                t.guest_mem <- Some r;
                r
          in
          if need > !(region.committed) then begin
            Enclave.commit t.enclave
              ~addr:(region.base + !(region.committed))
              ~len:(need - !(region.committed));
            region.committed := need
          end;
          install_memory_hook t.enclave ~base:region.base
            ~committed:region.committed mem;
          (match profile with
          | Some prof -> attach_profile prof t.machine module_ inst
          | None -> ());
          let finally () =
            (Memory.on_access mem) := None;
            inst.Instance.hooks <- None;
            Twine_obs.Ledger.set_context (Machine.ledger t.machine) None
          in
          let exit_code =
            Fun.protect ~finally (fun () ->
                match Instance.export_func inst "_start" with
                | None -> raise (Deploy_error "module has no _start")
                | Some _ -> (
                    try
                      ignore (Interp.invoke inst "_start" []);
                      0
                    with Api.Proc_exit code -> code))
          in
          let fuel = Interp.fuel_used inst in
          Twine_obs.Obs.add (Twine_obs.Obs.counter obs "twine.fuel") fuel;
          if fuel > 0 then
            Twine_obs.Obs.emit obs ~cat:"twine" ~args:[ ("fuel", fuel) ] "twine.fuel";
          { exit_code; stdout = Buffer.contents out; fuel })

(* --- request serving --- *)

(* The reusable request-service entry point: one ECALL brackets an
   entire batch of client requests, so N queued requests pay a single
   ≈13,100-cycle enclave round-trip instead of N (the paper's #1 cost,
   amortised Occlum-style by multiplexing work inside the enclave). The
   thunk runs with the enclave entered; nested ecalls (e.g. per-request
   helpers that defensively enter) are free, and the serving layer
   charges per-request work while inside. *)
let serve t ?(name = "twine.serve") ?batch f =
  (match batch with
  | Some args -> Twine_obs.Obs.emit (Machine.obs t.machine) ~cat:"serve" ~args name
  | None -> ());
  Enclave.ecall t.enclave ~name f

(* [run_safe]-style containment for the serving entry point, with the
   transient/lost distinction the fleet scheduler needs: a [`Transient]
   entry failure leaves the enclave healthy (requeue and retry against
   the same enclave); [`Lost] means the enclave is poisoned — tear it
   down with {!destroy} and relaunch a replacement. A read that fails
   authentication is transient too: the stored ciphertext is intact
   (as for [Sgx_host], which maps it to EIO). *)
let serve_safe t ?name ?batch f =
  try Ok (serve t ?name ?batch f) with
  | Twine_sim.Fault.Transient msg
  | Twine_ipfs.Protected_fs.Integrity_violation msg ->
      Error (`Transient msg)
  | Twine_sim.Fault.Crashed msg -> Error (`Lost msg)
  | Enclave.Poisoned -> Error (`Lost "enclave poisoned by earlier abort")

(* Tear the runtime down after an enclave loss: drop the deployed module
   and the guest-memory region (their enclave addresses die with the
   enclave; keeping them would let a later [run] touch pages of a dead
   address space), then destroy the enclave — which releases every EPC
   page it still holds and purges its eviction-provenance entries, so a
   relaunched replacement starts from clean machine-level accounting. *)
let destroy t =
  t.deployed <- None;
  t.guest_mem <- None;
  Enclave.destroy t.enclave

(* --- fault containment --- *)

let trap_message t e =
  match t.instance with
  | Some inst -> Interp.trap_message inst e
  | None -> Printexc.to_string e

type run_error =
  | Guest_trap of string  (* the guest trapped; the enclave survives *)
  | Enclave_lost of string  (* injected abort: destroy and relaunch *)

(* Typed-result execution: a guest trap (including deterministic fuel
   exhaustion) is contained — the ECALL unwinds cleanly, hooks and
   ledger context are detached by [run]'s protections, and the enclave
   stays reusable for the next [run]. An injected enclave abort instead
   poisons the enclave; it is reported once as [Enclave_lost] and every
   later attempt short-circuits to the same error. *)
let run_safe ?args ?env ?profile ?fuel_limit t =
  try Ok (run ?args ?env ?profile ?fuel_limit t) with
  | Values.Trap _ as e -> Error (Guest_trap (trap_message t e))
  | Twine_sim.Fault.Crashed msg -> Error (Enclave_lost msg)
  | Enclave.Poisoned -> Error (Enclave_lost "enclave poisoned by earlier abort")
