(* Cycle ledger: booking, the conservation audit, the function x account
   matrix, serialisation, and differential attribution — plus the
   machine-level invariant that every charge site books (zero residue),
   the sub-ns carry of charge_cycles, and the Audit value every
   conservation law is stated in. *)

open Twine_obs
open Twine_sgx

let page = Costs.page_size

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* booking by name, over the ledger's account handles *)
let book l name ns = Ledger.book l (Ledger.account l name) ns

(* --- booking and audit basics --- *)

let test_book_and_accounts () =
  let l = Ledger.create () in
  book l "a.x" 10;
  book l "a.x" 5;
  book l "a.y" 7;
  book l "b" 0;  (* zero ns still counts an event *)
  Alcotest.(check int) "a.x ns" 15 (Ledger.ns l "a.x");
  Alcotest.(check int) "a.x events" 2 (Ledger.events l "a.x");
  Alcotest.(check int) "b events" 1 (Ledger.events l "b");
  Alcotest.(check int) "total" 22 (Ledger.total l);
  Alcotest.(check (list string)) "sorted accounts" [ "a.x"; "a.y"; "b" ]
    (List.map fst (Ledger.accounts l));
  Alcotest.check_raises "negative booking rejected"
    (Invalid_argument "Ledger.book: negative nanoseconds") (fun () ->
      book l "a.x" (-1))

let test_audit_residue () =
  let clock = ref 0 in
  let l = Ledger.create ~now:(fun () -> !clock) () in
  clock := 100;
  book l "work" 60;
  let a = Ledger.audit l in
  Alcotest.(check (pair string int)) "total is elapsed" ("elapsed", 100) a.Audit.total;
  Alcotest.(check (list (pair string int))) "the part is booked" [ ("booked", 60) ]
    a.Audit.parts;
  Alcotest.(check int) "residue flags unbooked time" 40 (Audit.residue a);
  Alcotest.(check bool) "unbalanced" false (Ledger.balanced l);
  book l "work" 40;
  Alcotest.(check bool) "balanced once fully booked" true (Ledger.balanced l);
  Alcotest.(check bool) "render carries the audit line" true
    (contains (Ledger.render l)
       "ledger: elapsed 100 ns = booked 100 ns + residue 0 ns (balanced)\n")

let test_reset () =
  let clock = ref 0 in
  let l = Ledger.create ~now:(fun () -> !clock) () in
  clock := 50;
  book l "x" 50;
  Ledger.set_context l (Some "f");
  book l "x" 0;
  Ledger.reset l;
  Alcotest.(check int) "accounts cleared" 0 (List.length (Ledger.accounts l));
  Alcotest.(check bool) "context cleared" true (Ledger.context l = None);
  Alcotest.(check int) "elapsed restarts" 0 (snd (Ledger.audit l).Audit.total);
  clock := 80;
  book l "y" 30;
  Alcotest.(check bool) "balances against the new epoch" true (Ledger.balanced l)

(* --- machine-level conservation --- *)

let test_machine_conservation () =
  let m = Machine.create ~seed:"ledger-test" ~epc_bytes:(8 * page) () in
  let e = Enclave.create m ~heap_bytes:(4 * page) ~code:"ledger" () in
  ignore (Enclave.ecall e (fun _ -> Enclave.ocall e (fun () -> ())));
  let addr = Enclave.alloc e (16 * page) in
  Enclave.touch e ~addr ~len:(16 * page);
  Enclave.memset e (2 * page);
  Enclave.copy_in e 1000;
  Enclave.copy_out e 2000;
  let a = Ledger.audit (Machine.ledger m) in
  Alcotest.(check int) "zero residue" 0 (Audit.residue a);
  Alcotest.(check (pair string int)) "elapsed = clock" ("elapsed", Machine.now_ns m)
    a.Audit.total;
  Alcotest.(check bool) "time actually passed" true (Machine.now_ns m > 0);
  (* the remapped accounts took the bookings, not the histogram labels *)
  let l = Machine.ledger m in
  Alcotest.(check bool) "transitions split by direction" true
    (Ledger.ns l "sgx.transition.ecall" > 0 && Ledger.ns l "sgx.transition.ocall" > 0);
  Alcotest.(check bool) "memset under mee" true (Ledger.ns l "mee.memset" > 0);
  Alcotest.(check bool) "copies under mee" true (Ledger.ns l "mee.copy" > 0);
  Alcotest.(check bool) "paging split hit/evict" true
    (Ledger.ns l "epc.fault" > 0 && Ledger.ns l "epc.evict" > 0)

let test_cycle_carry () =
  (* Regression: 1-cycle charges used to round to 0 ns each, losing the
     whole cost. With the carry, 3800 of them at 3.8 GHz make ~1000 ns,
     and the ledger still balances (the clock and the books both see the
     carried amounts). *)
  let m = Machine.create ~seed:"carry" () in
  let tick = Ledger.account (Machine.ledger m) "tick" in
  for _ = 1 to 3800 do
    Machine.charge_cycles m tick 1
  done;
  let ns = Machine.now_ns m in
  Alcotest.(check bool)
    (Printf.sprintf "3800 one-cycle charges ~ 1000 ns (got %d)" ns)
    true
    (ns >= 999 && ns <= 1000);
  Alcotest.(check bool) "books balance under carry" true
    (Ledger.balanced (Machine.ledger m));
  Alcotest.(check int) "ledger saw the same time" ns
    (Ledger.ns (Machine.ledger m) "tick")

(* --- profiler context: the function x account matrix --- *)

let test_matrix_attribution () =
  let l = Ledger.create () in
  Ledger.set_context l (Some "kernel");
  book l "epc.fault" 100;
  book l "epc.fault" 50;
  Ledger.set_context l (Some "helper");
  book l "mee.copy" 30;
  Ledger.set_context l None;
  book l "sgx.launch" 999;  (* no frame: stays out of the matrix *)
  let s = Ledger.snapshot l in
  Alcotest.(check (list string)) "matrix rows sorted" [ "helper"; "kernel" ]
    (List.map fst s.Ledger.matrix);
  Alcotest.(check (list (pair string int))) "kernel row"
    [ ("epc.fault", 150) ]
    (List.assoc "kernel" s.Ledger.matrix);
  let rendered = Ledger.render_matrix s in
  Alcotest.(check bool) "matrix renders frames" true (contains rendered "kernel")

(* --- serialisation --- *)

let test_snapshot_round_trip () =
  let clock = ref 0 in
  let l = Ledger.create ~now:(fun () -> !clock) () in
  clock := 1234;
  Ledger.set_context l (Some "main");
  book l "sgx.transition.ecall" 1000;
  book l "epc.fault" 200;
  Ledger.set_context l None;
  let s = Ledger.snapshot l in
  match Ledger.of_string (Ledger.to_string s) with
  | Error msg -> Alcotest.fail msg
  | Ok s' ->
      Alcotest.(check int) "elapsed survives" s.Ledger.elapsed_ns s'.Ledger.elapsed_ns;
      Alcotest.(check int) "booked survives" s.Ledger.booked_ns s'.Ledger.booked_ns;
      Alcotest.(check bool) "accounts survive" true
        (s.Ledger.accounts = s'.Ledger.accounts);
      Alcotest.(check bool) "matrix survives" true (s.Ledger.matrix = s'.Ledger.matrix)

let test_of_string_rejects_garbage () =
  (match Ledger.of_string "{\"schema\":\"nope/v9\"}" with
  | Ok _ -> Alcotest.fail "accepted wrong schema"
  | Error msg -> Alcotest.(check bool) "names the schema" true (contains msg "nope"));
  match Ledger.of_string "not json at all" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ()

(* --- differential attribution --- *)

let snap accounts =
  let booked = List.fold_left (fun a (_, e) -> a + e.Ledger.ns) 0 accounts in
  { Ledger.elapsed_ns = booked; booked_ns = booked; accounts; matrix = [] }

let test_diff_ranking () =
  let e ns events = { Ledger.ns; events } in
  let base = snap [ ("a", e 100 1); ("b", e 50 1); ("gone", e 10 1) ] in
  let cur = snap [ ("a", e 500 1); ("b", e 45 1); ("new", e 20 1) ] in
  let ds = Ledger.diff base cur in
  Alcotest.(check (list string)) "ranked by |delta|, union of accounts"
    [ "a"; "new"; "gone"; "b" ]
    (List.map (fun d -> d.Ledger.account) ds);
  let a = List.hd ds in
  Alcotest.(check int) "delta value" 400 a.Ledger.delta_ns;
  let txt = Ledger.render_diff ~base ~current:cur () in
  Alcotest.(check bool) "render names the top account" true (contains txt "a")

let test_epc_shrink_attribution () =
  (* The acceptance experiment in miniature: the same workload against a
     roomy and a starved EPC must see its slowdown attributed dominantly
     to the epc.* accounts by [diff]. *)
  let workload epc_pages =
    let m = Machine.create ~seed:"shrink" ~epc_bytes:(epc_pages * page) () in
    let e = Enclave.create m ~heap_bytes:0 ~code:"w" () in
    let addr = Enclave.alloc e (32 * page) in
    for _ = 1 to 8 do
      Enclave.touch e ~addr ~len:(32 * page)
    done;
    Alcotest.(check bool) "workload balances" true
      (Ledger.balanced (Machine.ledger m));
    Ledger.snapshot (Machine.ledger m)
  in
  let roomy = workload 256 and starved = workload 16 in
  let ds = Ledger.diff roomy starved in
  let pos = List.filter (fun d -> d.Ledger.delta_ns > 0) ds in
  let tot = List.fold_left (fun a d -> a + d.Ledger.delta_ns) 0 pos in
  let epc =
    List.fold_left
      (fun a d ->
        if String.length d.Ledger.account >= 4 && String.sub d.Ledger.account 0 4 = "epc."
        then a + d.Ledger.delta_ns
        else a)
      0 pos
  in
  Alcotest.(check bool) "slowdown exists" true (tot > 0);
  Alcotest.(check bool)
    (Printf.sprintf "epc.* dominates the delta (%d of %d ns)" epc tot)
    true
    (float_of_int epc /. float_of_int tot > 0.5)

(* --- engine parity through the runtime --- *)

let parity_wat =
  {|(module
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "proc_exit"
        (func $proc_exit (param i32)))
      (memory (export "memory") 2)
      (data (i32.const 0) "ledger\0a")
      (func (export "_start")
        (local $i i32)
        (i32.store (i32.const 16) (i32.const 0))
        (i32.store (i32.const 20) (i32.const 7))
        (block $done
          (loop $l
            (br_if $done (i32.ge_u (local.get $i) (i32.const 8)))
            (drop (call $fd_write (i32.const 1) (i32.const 16) (i32.const 1)
                     (i32.const 24)))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $l)))
        (call $proc_exit (i32.const 0))))|}

let run_engine engine =
  let machine = Machine.create ~seed:"parity" ~epc_bytes:(64 * page) () in
  let config = { Twine.Runtime.default_config with engine } in
  let rt = Twine.Runtime.create ~config machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse parity_wat);
  let r = Twine.Runtime.run rt in
  Alcotest.(check int) "guest exits cleanly" 0 r.Twine.Runtime.exit_code;
  Alcotest.(check bool) "run balances" true (Ledger.balanced (Machine.ledger machine));
  Ledger.accounts (Machine.ledger machine)

let test_engine_ledger_parity () =
  (* Identical workload, identical books — the only account allowed to
     differ is the AoT code-generation charge itself. *)
  let drop_aot = List.filter (fun (name, _) -> name <> "twine.aot") in
  let interp = run_engine Twine.Runtime.Interpreter in
  let aot = run_engine Twine.Runtime.Aot in
  Alcotest.(check bool) "AoT books its codegen" true
    (List.mem_assoc "twine.aot" aot);
  Alcotest.(check bool) "interp books no codegen" false
    (List.mem_assoc "twine.aot" interp);
  List.iter2
    (fun (ni, ei) (na, ea) ->
      Alcotest.(check string) "same account" ni na;
      Alcotest.(check int) (ni ^ " same ns") ei.Ledger.ns ea.Ledger.ns;
      Alcotest.(check int) (ni ^ " same events") ei.Ledger.events ea.Ledger.events)
    (drop_aot interp) (drop_aot aot)

(* The ledger [bench profile] exports for atax in an enclave (guest
   profiler joined to the ledger, EPC-pressured linear memory) survives
   its JSON round trip and balances: booked = sum of accounts = elapsed. *)
let test_profiled_atax_ledger () =
  let k =
    match Twine_polybench.Kernels.find "atax" (Twine_polybench.Kernels.all ~scale:0.4 ()) with
    | Some k -> k
    | None -> Alcotest.fail "atax kernel missing"
  in
  let machine = Machine.create ~seed:"fig3" ~epc_bytes:(2 * 1024 * 1024) () in
  let enclave = Enclave.create machine ~heap_bytes:0 ~code:Twine.Runtime.runtime_code () in
  let m, _ = Twine_polybench.Kernel_dsl.comp_wasm k in
  let inst = Twine_wasm.Interp.instantiate m in
  ignore (Twine_wasm.Aot.compile_instance inst);
  let prof = Profile.create ~now:(fun () -> Machine.now_ns machine) () in
  Profile.connect_ledger prof (Machine.ledger machine);
  let fuel () = inst.Twine_wasm.Instance.fuel_used in
  inst.Twine_wasm.Instance.hooks <-
    Some
      { Twine_wasm.Instance.on_enter = (fun i -> Profile.enter prof ~fuel:(fuel ()) i);
        on_exit = (fun i -> Profile.exit prof ~fuel:(fuel ()) i) };
  let mem = Option.get inst.Twine_wasm.Instance.memory in
  let base = Enclave.reserve enclave (Twine_wasm.Memory.size_bytes mem) in
  Twine.Runtime.install_memory_hook enclave ~base mem;
  Enclave.ecall enclave (fun _ -> ignore (Twine_wasm.Interp.invoke inst "kernel" []));
  Alcotest.(check string) "schema" "twine-ledger/v1" Ledger.schema;
  match Ledger.of_string (Ledger.to_string (Ledger.snapshot (Machine.ledger machine))) with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
      let sum = List.fold_left (fun acc (_, e) -> acc + e.Ledger.ns) 0 s.Ledger.accounts in
      Alcotest.(check bool) "kernel ran in the enclave" true (s.Ledger.elapsed_ns > 0);
      Alcotest.(check int) "booked = sum of accounts" sum s.Ledger.booked_ns;
      Alcotest.(check int) "booked = elapsed" s.Ledger.elapsed_ns s.Ledger.booked_ns

(* --- the Audit value --- *)

let audit ?(unit = "ns") total parts =
  { Audit.law = "law"; unit; total = ("total", total); parts }

let test_audit_double_booked () =
  (* time booked twice shows as a negative residue, through the producer *)
  let clock = ref 0 in
  let l = Ledger.create ~now:(fun () -> !clock) () in
  clock := 100;
  book l "work" 100;
  book l "work.again" 30;
  let a = Ledger.audit l in
  Alcotest.(check int) "negative residue" (-30) (Audit.residue a);
  Alcotest.(check bool) "not ok" false (Audit.ok a);
  Alcotest.(check string) "rendered"
    "ledger: elapsed 100 ns = booked 130 ns + residue -30 ns (UNBALANCED)"
    (Audit.render a)

let test_audit_ok () =
  Alcotest.(check bool) "parts explain the total" true
    (Audit.ok (audit 10 [ ("a", 4); ("b", 6) ]));
  Alcotest.(check bool) "no parts, zero total" true (Audit.ok (audit 0 []));
  Alcotest.(check bool) "unexplained remainder" false
    (Audit.ok (audit 10 [ ("a", 4) ]));
  Alcotest.(check int) "residue is total - sum of parts" 6
    (Audit.residue (audit 10 [ ("a", 4) ]))

let test_audit_render () =
  Alcotest.(check string) "balanced"
    "law: total 10 ns = a 4 ns + b 6 ns + residue 0 ns (balanced)"
    (Audit.render (audit 10 [ ("a", 4); ("b", 6) ]));
  Alcotest.(check string) "unbalanced, no unit"
    "law: total 10 = a 3 + residue 7 (UNBALANCED)"
    (Audit.render (audit ~unit:"" 10 [ ("a", 3) ]))

let test_audit_check () =
  let good = audit 5 [ ("a", 5) ] in
  let over = audit 5 [ ("a", 6) ] and under = audit 5 [ ("a", 1) ] in
  Alcotest.(check int) "all hold: nothing fails" 0
    (List.length (Audit.check [ good; good ]));
  Alcotest.(check (list int)) "every failure, in order" [ -1; 4 ]
    (List.map Audit.residue (Audit.check [ good; over; good; under ]))

let () =
  Alcotest.run "ledger"
    [
      ( "booking",
        [
          Alcotest.test_case "book + accounts" `Quick test_book_and_accounts;
          Alcotest.test_case "audit residue" `Quick test_audit_residue;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "machine",
        [
          Alcotest.test_case "conservation" `Quick test_machine_conservation;
          Alcotest.test_case "cycle carry" `Quick test_cycle_carry;
        ] );
      ( "matrix",
        [ Alcotest.test_case "context attribution" `Quick test_matrix_attribution ] );
      ( "serialisation",
        [
          Alcotest.test_case "round trip" `Quick test_snapshot_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_of_string_rejects_garbage;
          Alcotest.test_case "profiled atax balances" `Quick test_profiled_atax_ledger;
        ] );
      ( "diff",
        [
          Alcotest.test_case "ranking" `Quick test_diff_ranking;
          Alcotest.test_case "EPC shrink attribution" `Quick test_epc_shrink_attribution;
        ] );
      ( "engines",
        [ Alcotest.test_case "interp = aot ledger" `Quick test_engine_ledger_parity ] );
      ( "audit",
        [
          Alcotest.test_case "double-booked time" `Quick test_audit_double_booked;
          Alcotest.test_case "ok" `Quick test_audit_ok;
          Alcotest.test_case "render" `Quick test_audit_render;
          Alcotest.test_case "check returns every failure" `Quick test_audit_check;
        ] );
    ]
