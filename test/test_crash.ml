(* Fault-injection plane and crash-point recovery (ISSUE 5).

   Covers: determinism of seeded fault plans (identical injection
   sequence AND identical ledger books across runs) and their isolation
   per machine, the pager crash matrix (every recorded backing-op
   prefix recovers to a transaction boundary, including torn and
   unsynced-write variants),
   the protected-FS crash matrix (old-or-new header commit, recovery
   idempotence, never a spurious Integrity_violation), fuel-limit
   parity between the two engines, WASI hostcall containment, host
   OCALL retry under transient faults, and enclave poisoning after an
   injected abort. *)

open Twine_sim
open Twine_sgx
open Twine_sqldb

(* ------------------------------------------------------------------ *)
(* Shared SQL workload over a recording VFS                            *)
(* ------------------------------------------------------------------ *)

let sql_workload =
  [
    "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')";
    "UPDATE t SET v = 'B' WHERE id = 2";
    "INSERT INTO t (id, v) VALUES (4, 'd')";
    "DELETE FROM t WHERE id = 1";
  ]

let query_opt db =
  match Db.query db "SELECT id, v FROM t ORDER BY id" with
  | rows -> Some rows
  | exception Db.Sql_error _ -> None

(* Run the workload over [vfs]; returns the per-transaction snapshots
   [(ops_in_log_so_far, state)] in commit order. *)
let run_workload ?obs ~log vfs =
  let db = Db.open_db ~vfs ~cache_pages:8 ?obs "t.db" in
  ignore (Db.exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  let snaps = ref [ (Crashpoint.length log, query_opt db) ] in
  List.iter
    (fun sql ->
      ignore (Db.exec db sql);
      snaps := (Crashpoint.length log, query_opt db) :: !snaps)
    sql_workload;
  Db.close db;
  List.rev !snaps

(* Old-or-new acceptance: after replaying [at] ops, recovery must land
   on the last snapshot whose ops all made the cut, or the next one
   (commit was in flight and every write survived). *)
let check_boundary ~what snaps ~at got =
  let committed =
    List.filter (fun (oplen, _) -> oplen <= at) snaps
    |> List.rev
    |> function (_, s) :: _ -> Some s | [] -> None
  in
  let next =
    List.find_opt (fun (oplen, _) -> oplen > at) snaps |> Option.map snd
  in
  let acceptable =
    (match committed with Some s -> [ s ] | None -> [ None; Some [] ])
    @ (match next with Some s -> [ s ] | None -> [])
  in
  if not (List.mem got acceptable) then
    Alcotest.failf "%s: cut %d recovered to a non-boundary state (%s)" what at
      (match got with
      | None -> "no table"
      | Some rows -> Printf.sprintf "%d rows" (List.length rows))

(* ------------------------------------------------------------------ *)
(* Fault-plan determinism                                              *)
(* ------------------------------------------------------------------ *)

let test_plan_determinism () =
  let plan =
    Fault.plan ~seed:"determinism"
      [
        Fault.rule ~prob:0.15 "backing.write" (Fault.Delay 300);
        Fault.rule ~prob:0.10 "backing.read" (Fault.Delay 700);
      ]
  in
  (* the workload over a protected-FS stack, whose untrusted store is
     where the backing.* sites sit *)
  let run_once () =
    let machine = Machine.create ~seed:"det" () in
    let enclave = Enclave.create machine ~code:"determinism" () in
    let log = Crashpoint.create () in
    let fs =
      Twine_ipfs.Protected_fs.create enclave
        (Backing.logged log (Backing.memory ()))
        ~cache_nodes:8 ()
    in
    Machine.arm_faults machine plan;
    let snaps =
      run_workload ~obs:(Machine.obs machine) ~log (Twine.Bench_db.pfs_svfs fs)
    in
    let ledger = Machine.ledger machine in
    ( snaps,
      Fault.injections plan,
      Twine_obs.Ledger.to_string (Twine_obs.Ledger.snapshot ledger),
      Twine_obs.Ledger.ns ledger "fault.backing.write"
      + Twine_obs.Ledger.ns ledger "fault.backing.read",
      Twine_obs.Ledger.balanced ledger )
  in
  let snaps1, inj1, books1, fault_ns1, bal1 = run_once () in
  let snaps2, inj2, books2, _, _ = run_once () in
  Alcotest.(check bool) "workload deterministic" true (snaps1 = snaps2);
  Alcotest.(check bool) "injections fired" true (List.length inj1 > 0);
  Alcotest.(check bool) "same injection sequence" true (inj1 = inj2);
  Alcotest.(check string) "same ledger books" books1 books2;
  Alcotest.(check bool) "delays booked under fault.*" true (fault_ns1 > 0);
  Alcotest.(check bool) "books balance under injection" true bal1

let test_rearm_resets () =
  let machine = Machine.create ~seed:"rearm" () in
  let plan = Fault.plan [ Fault.rule ~nth:2 "site.x" Fault.Fail ] in
  let fire () =
    Machine.arm_faults machine plan;
    let a = Machine.fault machine "site.x" in
    let b = Machine.fault machine "site.x" in
    (a, b)
  in
  let r1 = fire () in
  let r2 = fire () in
  Alcotest.(check bool) "nth=2 fires on second op" true
    (r1 = (None, Some Fault.Fail));
  Alcotest.(check bool) "re-arm replays identically" true (r1 = r2);
  Machine.disarm_faults machine;
  Alcotest.(check bool) "disarmed is free" true
    (Machine.fault machine "site.x" = None)

(* Two machines in one process: a plan armed on one never reaches the
   other's sites. *)
let test_plan_per_machine () =
  let launch seed =
    let m = Machine.create ~seed () in
    (m, Enclave.create m ~code:"per-machine" ())
  in
  let ma, ea = launch "a" in
  let _, eb = launch "b" in
  Machine.arm_faults ma (Fault.plan [ Fault.rule ~nth:1 "enclave.ecall" Fault.Crash ]);
  Alcotest.(check int) "an ECALL on B succeeds" 7 (Enclave.ecall eb (fun _ -> 7));
  Alcotest.(check bool) "B's enclave is not poisoned" false (Enclave.poisoned eb);
  Alcotest.check_raises "A's first ECALL crashes" (Fault.Crashed "enclave.ecall")
    (fun () -> Enclave.ecall ea (fun _ -> ()));
  Alcotest.(check bool) "A's enclave is poisoned" true (Enclave.poisoned ea)

(* ------------------------------------------------------------------ *)
(* Pager crash matrix                                                  *)
(* ------------------------------------------------------------------ *)

let test_pager_crash_matrix () =
  let log = Crashpoint.create () in
  let snaps = run_workload ~log (Svfs.of_backing (Backing.logged log (Backing.memory ()))) in
  let n = Crashpoint.length log in
  for at = 0 to n do
    List.iter
      (fun torn ->
        if (not torn) || at < n then begin
          let vfs = Svfs.of_backing (Backing.replay ~torn log ~at) in
          let db = Db.open_db ~vfs ~cache_pages:8 "t.db" in
          let got = query_opt db in
          Db.close db;
          check_boundary ~what:(if torn then "pager torn" else "pager") snaps
            ~at got
        end)
      [ false; true ]
  done

let test_pager_unsynced_matrix () =
  (* The journal is synced before any page write and the database is
     synced before the journal is invalidated; losing any subset of
     unsynced writes must therefore still recover to a boundary. *)
  let log = Crashpoint.create () in
  let snaps = run_workload ~log (Svfs.of_backing (Backing.logged log (Backing.memory ()))) in
  let n = Crashpoint.length log in
  List.iter
    (fun seed ->
      for at = 0 to n do
        let vfs = Svfs.of_backing (Backing.replay_unsynced ~seed log ~at) in
        let db = Db.open_db ~vfs ~cache_pages:8 "t.db" in
        let got = query_opt db in
        Db.close db;
        check_boundary ~what:("pager unsynced " ^ seed) snaps ~at got
      done)
    [ "power-a"; "power-b"; "power-c" ]

(* ------------------------------------------------------------------ *)
(* Protected-FS crash matrix                                           *)
(* ------------------------------------------------------------------ *)

let pfs_stack backing =
  let machine = Machine.create ~seed:"pfs-crash" () in
  let enclave = Enclave.create machine ~code:"pfs-crash-test" () in
  (machine, Twine_ipfs.Protected_fs.create enclave backing ~cache_nodes:4 ())

let pfs_read_all fs path =
  if not (Twine_ipfs.Protected_fs.exists fs path) then None
  else
    (* [exists] may report a torn-first-commit remnant that [open_file]
       recovery resolves to "never existed" — that is the absent state *)
    match Twine_ipfs.Protected_fs.open_file fs ~mode:`Rdonly path with
    | exception Sys_error _ -> None
    | f ->
        let n = Twine_ipfs.Protected_fs.file_size f in
        let b = Bytes.create n in
        let got = Twine_ipfs.Protected_fs.read f b ~off:0 ~len:n in
        Twine_ipfs.Protected_fs.close f;
        Some (Bytes.sub_string b 0 got)

let test_pfs_crash_matrix () =
  (* commit three growing versions; every backing prefix must yield one
     of the committed versions — and recovery must be idempotent. *)
  let log = Crashpoint.create () in
  let backing = Backing.logged log (Backing.memory ()) in
  let _, fs = pfs_stack backing in
  let f = Twine_ipfs.Protected_fs.open_file fs ~mode:`Rdwr "a" in
  let versions = [ "aaaa"; "bbbbbbbb"; "cccccccccccc" ] in
  let boundaries = ref [] in
  List.iter
    (fun v ->
      ignore (Twine_ipfs.Protected_fs.seek f ~offset:0 ~whence:`Set);
      ignore (Twine_ipfs.Protected_fs.write f v);
      Twine_ipfs.Protected_fs.flush f;
      boundaries := (Crashpoint.length log, Some v) :: !boundaries)
    versions;
  Twine_ipfs.Protected_fs.close f;
  let boundaries = List.rev !boundaries in
  let n = Crashpoint.length log in
  for at = 0 to n do
    List.iter
      (fun torn ->
        if (not torn) || at < n then begin
          let b = Backing.replay ~torn log ~at in
          let got =
            try
              let _, fs1 = pfs_stack b in
              pfs_read_all fs1 "a"
            with Twine_ipfs.Protected_fs.Integrity_violation m ->
              Alcotest.failf "cut %d%s: spurious Integrity_violation (%s)" at
                (if torn then " torn" else "")
                m
          in
          let committed =
            List.filter (fun (oplen, _) -> oplen <= at) boundaries
            |> List.rev
            |> function (_, s) :: _ -> s | [] -> None
          in
          let next =
            List.find_opt (fun (oplen, _) -> oplen > at) boundaries
            |> Option.map snd
          in
          let acceptable =
            [ committed ] @ (match next with Some s -> [ s ] | None -> [])
          in
          if not (List.mem got acceptable) then
            Alcotest.failf "cut %d%s: content %s is not old-or-new" at
              (if torn then " torn" else "")
              (match got with None -> "<absent>" | Some s -> s);
          (* recovery idempotence: a second open over the same backing
             (recovery already ran) must see the identical content *)
          let _, fs2 = pfs_stack b in
          let again = pfs_read_all fs2 "a" in
          Alcotest.(check bool)
            (Printf.sprintf "cut %d%s: recover twice = once" at
               (if torn then " torn" else ""))
            true (got = again)
        end)
      [ false; true ]
  done

(* ------------------------------------------------------------------ *)
(* Fuel limits: engine parity                                          *)
(* ------------------------------------------------------------------ *)

let loop_wat =
  {|(module
      (func (export "spin")
        (local $i i32)
        (local.set $i (i32.const 1000000))
        (block
          (loop
            (br_if 1 (i32.eqz (local.get $i)))
            (local.set $i (i32.sub (local.get $i) (i32.const 1)))
            (br 0)))))|}

let test_fuel_parity () =
  let m = Twine_wasm.Wat.parse loop_wat in
  let run_engine aot =
    let inst = Twine_wasm.Interp.instantiate m in
    if aot then ignore (Twine_wasm.Aot.compile_instance inst);
    inst.Twine_wasm.Instance.fuel_limit <- 500;
    (match Twine_wasm.Interp.invoke inst "spin" [] with
    | _ -> Alcotest.fail "expected fuel-exhausted trap"
    | exception Twine_wasm.Values.Trap msg ->
        Alcotest.(check string) "trap message" "fuel exhausted" msg);
    Twine_wasm.Interp.fuel_used inst
  in
  let fi = run_engine false in
  let fa = run_engine true in
  Alcotest.(check int) "trap just past the limit" 501 fi;
  Alcotest.(check int) "engines trap at identical fuel" fi fa

let spin_start_wat =
  {|(module
      (memory (export "memory") 1)
      (func (export "_start") (loop (br 0))))|}

let test_runtime_fuel_limit () =
  let machine = Machine.create ~seed:"fuel" () in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse spin_start_wat);
  (match Twine.Runtime.run_safe ~fuel_limit:10_000 rt with
  | Error (Twine.Runtime.Guest_trap msg) ->
      Alcotest.(check bool) "fuel trap" true
        (String.length msg >= 14 && String.sub msg 0 14 = "fuel exhausted")
  | Ok _ -> Alcotest.fail "runaway guest did not trap"
  | Error (Twine.Runtime.Enclave_lost m) -> Alcotest.failf "enclave lost: %s" m);
  (* the trap unwound cleanly: the same enclave runs the next module *)
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse {|(module (memory (export "memory") 1) (func (export "_start")))|});
  (match Twine.Runtime.run_safe ~fuel_limit:10_000 rt with
  | Ok r -> Alcotest.(check int) "clean exit after trap" 0 r.Twine.Runtime.exit_code
  | Error _ -> Alcotest.fail "enclave not reusable after guest trap");
  Alcotest.check_raises "negative limit rejected"
    (Invalid_argument "Runtime.run: negative fuel limit") (fun () ->
      ignore (Twine.Runtime.run ~fuel_limit:(-1) rt))

(* ------------------------------------------------------------------ *)
(* WASI hostcall containment                                           *)
(* ------------------------------------------------------------------ *)

let mem_module =
  Twine_wasm.Wat.parse {|(module (memory (export "memory") 2))|}

let test_wasi_containment () =
  let obs = Twine_obs.Obs.create () in
  let boom =
    { (Twine_wasi.Api.default_providers ()) with stdout = (fun _ -> failwith "boom") }
  in
  let ctx = Twine_wasi.Api.create ~providers:boom ~obs () in
  let inst =
    Twine_wasm.Interp.instantiate ~imports:(Twine_wasi.Api.imports ctx)
      mem_module
  in
  Twine_wasi.Api.bind_memory ctx inst;
  let m = Twine_wasi.Api.memory ctx in
  let fns = Twine_wasi.Api.functions ctx in
  let call name args =
    match List.assoc_opt name fns with
    | Some f -> (
        match Twine_wasm.Interp.call_func f args with
        | [ Twine_wasm.Values.I32 e ] -> Int32.to_int e
        | _ -> Alcotest.fail "unexpected results")
    | None -> Alcotest.fail ("no such wasi function " ^ name)
  in
  (* iovec at 8 -> 3 bytes at 100 *)
  Twine_wasm.Memory.store32 m 8 100l;
  Twine_wasm.Memory.store32 m 12 3l;
  let args =
    Twine_wasm.Values.
      [ I32 1l; I32 8l; I32 1l; I32 20l ]
  in
  (* a provider exception must come back as EIO, not unwind the guest *)
  Alcotest.(check int) "contained -> EIO" Twine_wasi.Errno.eio
    (call "fd_write" args);
  Alcotest.(check int) "containment counted" 1
    (Twine_obs.Obs.value obs "wasi.fault.contained")

(* ------------------------------------------------------------------ *)
(* Host OCALL retry under transient faults                             *)
(* ------------------------------------------------------------------ *)

let clock_wat =
  {|(module
      (import "wasi_snapshot_preview1" "clock_time_get"
        (func $ctg (param i32 i64 i32) (result i32)))
      (memory (export "memory") 1)
      (func (export "_start")
        (drop (call $ctg (i32.const 0) (i64.const 0) (i32.const 8)))))|}

let test_host_ocall_retry () =
  let machine = Machine.create ~seed:"retry" () in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse clock_wat);
  Machine.arm_faults machine
    (Fault.plan
       [
         Fault.rule ~nth:1 "host.ocall" Fault.Fail;
         Fault.rule ~nth:2 "host.ocall" Fault.Fail;
       ]);
  let r = Twine.Runtime.run rt in
  Alcotest.(check int) "succeeded after retries" 0 r.Twine.Runtime.exit_code;
  (* each retry charged exponential virtual backoff under fault.retry *)
  Alcotest.(check int) "backoff booked" 3000
    (Twine_obs.Ledger.ns (Machine.ledger machine) "fault.retry");
  Alcotest.(check bool) "books balance" true
    (Twine_obs.Ledger.balanced (Machine.ledger machine))

(* ------------------------------------------------------------------ *)
(* Enclave poisoning                                                   *)
(* ------------------------------------------------------------------ *)

let test_enclave_poison () =
  let machine = Machine.create ~seed:"poison" () in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt
    (Twine_wasm.Wat.parse
       {|(module (memory (export "memory") 1) (func (export "_start") unreachable))|});
  (* a guest trap is contained and the enclave stays usable *)
  (match Twine.Runtime.run_safe rt with
  | Error (Twine.Runtime.Guest_trap _) -> ()
  | _ -> Alcotest.fail "expected a guest trap");
  Alcotest.(check bool) "not poisoned by a guest trap" false
    (Enclave.poisoned (Twine.Runtime.enclave rt));
  (* an injected abort on the next ECALL poisons the enclave for good *)
  Machine.arm_faults machine
    (Fault.plan [ Fault.rule ~nth:1 "enclave.ecall" Fault.Crash ]);
  (match Twine.Runtime.run_safe rt with
  | Error (Twine.Runtime.Enclave_lost _) -> ()
  | _ -> Alcotest.fail "expected Enclave_lost on injected abort");
  Alcotest.(check bool) "poisoned" true
    (Enclave.poisoned (Twine.Runtime.enclave rt));
  Machine.disarm_faults machine;
  (* ... even with the plan disarmed: the enclave must be relaunched *)
  (match Twine.Runtime.run_safe rt with
  | Error (Twine.Runtime.Enclave_lost _) -> ()
  | _ -> Alcotest.fail "poisoned enclave accepted another call")

let () =
  Alcotest.run "twine-crash"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "seeded plan determinism" `Quick
            test_plan_determinism;
          Alcotest.test_case "re-arm replays, disarm frees" `Quick
            test_rearm_resets;
          Alcotest.test_case "a plan is per machine" `Quick
            test_plan_per_machine;
        ] );
      ( "pager-crash",
        [
          Alcotest.test_case "prefix + torn matrix" `Quick
            test_pager_crash_matrix;
          Alcotest.test_case "unsynced-write matrix" `Quick
            test_pager_unsynced_matrix;
        ] );
      ( "pfs-crash",
        [
          Alcotest.test_case "old-or-new + idempotent recovery" `Quick
            test_pfs_crash_matrix;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "engine parity at the limit" `Quick
            test_fuel_parity;
          Alcotest.test_case "runtime fuel limit" `Quick
            test_runtime_fuel_limit;
        ] );
      ( "containment",
        [
          Alcotest.test_case "wasi errno containment" `Quick
            test_wasi_containment;
          Alcotest.test_case "host ocall retry" `Quick test_host_ocall_retry;
          Alcotest.test_case "enclave poison semantics" `Quick
            test_enclave_poison;
        ] );
    ]
