(* Guest-level calling-context profiler: shadow-stack correctness
   (including traps and reentrant host calls), interpreter-vs-AoT
   parity, folded-stack output, and name-section round-tripping. *)

open Twine_wasm
open Twine_obs

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Attach a profiler to an instance exactly as Runtime.run does. *)
let attach prof (inst : Instance.t) =
  Profile.set_namer prof (fun i ->
      match Ast.func_name inst.Instance.module_ i with
      | Some n -> n
      | None -> Printf.sprintf "func[%d]" i);
  inst.Instance.hooks <-
    Some
      {
        Instance.on_enter =
          (fun i -> Profile.enter prof ~fuel:inst.Instance.fuel_used i);
        Instance.on_exit =
          (fun i -> Profile.exit prof ~fuel:inst.Instance.fuel_used i);
      }

let fn_by_name prof name =
  match
    List.find_opt (fun f -> f.Profile.fn_name = name) (Profile.functions prof)
  with
  | Some f -> f
  | None -> Alcotest.failf "function %s not in profile" name

(* A comparable engine-independent view (cycles depend on the clock). *)
let flat prof =
  List.map
    (fun (f : Profile.fn) ->
      (f.Profile.fn_name, f.Profile.calls, f.Profile.self_fuel, f.Profile.total_fuel))
    (Profile.functions prof)

let two_level_wat =
  {|(module
      (func $leaf (result i32) (i32.const 2) (i32.const 3) (i32.add))
      (func $main (export "go") (result i32)
        (call $leaf) (i32.const 1) (i32.add)))|}

let run_two_level ~engine =
  let inst = Interp.instantiate (Wat.parse two_level_wat) in
  if engine = `Aot then ignore (Aot.compile_instance inst);
  let prof = Profile.create () in
  attach prof inst;
  ignore (Interp.invoke inst "go" []);
  (prof, Interp.fuel_used inst)

let test_shadow_stack_attribution () =
  List.iter
    (fun engine ->
      let prof, fuel = run_two_level ~engine in
      Alcotest.(check int) "all fuel attributed" fuel (Profile.total_fuel prof);
      Alcotest.(check int) "stack balanced" 0 (Profile.depth prof);
      let main = fn_by_name prof "main" and leaf = fn_by_name prof "leaf" in
      (* main: call+const+add = 3 self; leaf: const+const+add = 3 self *)
      Alcotest.(check int) "main self" 3 main.Profile.self_fuel;
      Alcotest.(check int) "leaf self" 3 leaf.Profile.self_fuel;
      Alcotest.(check int) "main total = self + callee" 6 main.Profile.total_fuel;
      Alcotest.(check int) "leaf total" 3 leaf.Profile.total_fuel;
      Alcotest.(check int) "main calls" 1 main.Profile.calls;
      Alcotest.(check int) "leaf calls" 1 leaf.Profile.calls;
      Alcotest.(check (list (pair int int)))
        "call edges" [ (-1, 1); (1, 0) ]
        (List.map fst (Profile.edges prof)))
    [ `Interp; `Aot ]

let test_engine_parity_two_level () =
  let pi, fi = run_two_level ~engine:`Interp in
  let pa, fa = run_two_level ~engine:`Aot in
  Alcotest.(check int) "fuel parity" fi fa;
  Alcotest.(check bool) "per-function parity" true (flat pi = flat pa)

(* Every PolyBench kernel must retire the identical instruction stream
   under both engines — the profiler doubles as a differential check. *)
let test_engine_parity_polybench () =
  List.iter
    (fun k ->
      let profiled engine =
        let prof = Profile.create () in
        let hooks (inst : Instance.t) =
          attach prof inst;
          match inst.Instance.hooks with Some h -> h | None -> assert false
        in
        let r = Twine_polybench.Suite.run_wasm ~hooks ~engine k in
        (prof, r.Twine_polybench.Suite.fuel)
      in
      let pi, fi = profiled `Interp in
      let pa, fa = profiled `Aot in
      let name = k.Twine_polybench.Kernel_dsl.name in
      Alcotest.(check int) (name ^ ": fuel parity") fi fa;
      Alcotest.(check bool) (name ^ ": nonzero") true (fi > 0);
      Alcotest.(check bool)
        (name ^ ": per-function parity")
        true
        (flat pi = flat pa))
    (Twine_polybench.Kernels.all ~scale:0.2 ())

let test_hostcall_attribution () =
  (* a fake virtual clock bumped only inside the host function: all of
     its cost must land in the *calling* Wasm frame's self cycles *)
  let clock = ref 0 in
  let wat =
    {|(module
        (import "env" "tick" (func $tick))
        (func $busy (export "busy") (call $tick) (call $tick)))|}
  in
  let tick =
    Instance.host_func ~name:"tick"
      { Types.params = []; results = [] }
      (fun _ ->
        clock := !clock + 500;
        [])
  in
  let inst =
    Interp.instantiate ~imports:[ ("env", "tick", Instance.Extern_func tick) ]
      (Wat.parse wat)
  in
  let prof = Profile.create ~now:(fun () -> !clock) () in
  attach prof inst;
  ignore (Interp.invoke inst "busy" []);
  let busy = fn_by_name prof "busy" in
  Alcotest.(check int) "hostcall cycles on caller self" 1000 busy.Profile.self_cycles;
  Alcotest.(check int) "totals match" 1000 busy.Profile.total_cycles;
  (* the host function itself never appears as a frame *)
  Alcotest.(check int) "one profiled function" 1
    (List.length (Profile.functions prof))

let trap_wat =
  {|(module
      (func $boom unreachable)
      (func $mid (call $boom))
      (func $top (export "go") (call $mid)))|}

let test_trap_backtrace () =
  List.iter
    (fun engine ->
      let inst = Interp.instantiate (Wat.parse trap_wat) in
      if engine = `Aot then ignore (Aot.compile_instance inst);
      let prof = Profile.create () in
      attach prof inst;
      match Interp.invoke inst "go" [] with
      | _ -> Alcotest.fail "expected trap"
      | exception (Values.Trap msg as e) ->
          (* message itself is unchanged; context rides out-of-band *)
          Alcotest.(check string) "trap message" "unreachable executed" msg;
          Alcotest.(check (list string))
            "backtrace innermost-first" [ "boom"; "mid"; "top" ]
            (Interp.trap_backtrace inst e);
          Alcotest.(check string) "rendered context"
            "unreachable executed (in boom)\n\
            \  called from mid\n\
            \  called from top"
            (Interp.trap_message inst e);
          (* unwinding popped every shadow frame *)
          Alcotest.(check int) "stack balanced after trap" 0 (Profile.depth prof);
          let boom = fn_by_name prof "boom" in
          Alcotest.(check int) "trapping frame recorded" 1 boom.Profile.calls)
    [ `Interp; `Aot ]

let test_trap_backtrace_unprofiled () =
  let inst = Interp.instantiate (Wat.parse trap_wat) in
  match Interp.invoke inst "go" [] with
  | _ -> Alcotest.fail "expected trap"
  | exception (Values.Trap _ as e) ->
      Alcotest.(check (list string))
        "backtrace without hooks" [ "boom"; "mid"; "top" ]
        (Interp.trap_backtrace inst e)

let test_reentrant_host_call () =
  (* guest -> host -> guest again: the inner activation must nest under
     the outer frame and the stack must stay balanced *)
  let inst_ref = ref None in
  let cb =
    Instance.host_func ~name:"cb"
      { Types.params = []; results = [] }
      (fun _ ->
        (match !inst_ref with
        | Some inst -> ignore (Interp.invoke inst "inner" [])
        | None -> assert false);
        [])
  in
  let wat =
    {|(module
        (import "env" "cb" (func $cb))
        (func $inner (export "inner") (drop (i32.const 1)))
        (func $outer (export "outer") (call $cb)))|}
  in
  let inst =
    Interp.instantiate ~imports:[ ("env", "cb", Instance.Extern_func cb) ]
      (Wat.parse wat)
  in
  inst_ref := Some inst;
  let prof = Profile.create () in
  attach prof inst;
  ignore (Interp.invoke inst "outer" []);
  Alcotest.(check int) "balanced" 0 (Profile.depth prof);
  let paths = ref [] in
  Profile.iter prof (fun ~stack ~calls:_ ~self_fuel:_ ~self_cycles:_ ->
      paths := List.map (Profile.name prof) stack :: !paths);
  Alcotest.(check bool) "inner nests under outer" true
    (List.mem [ "outer"; "inner" ] !paths);
  Alcotest.(check int) "all fuel attributed"
    (Interp.fuel_used inst) (Profile.total_fuel prof)

let test_recursion_totals () =
  let wat =
    {|(module
        (func $down (export "down") (param i32)
          (if (i32.ne (local.get 0) (i32.const 0))
            (then (call $down (i32.sub (local.get 0) (i32.const 1)))))))|}
  in
  let inst = Interp.instantiate (Wat.parse wat) in
  let prof = Profile.create () in
  attach prof inst;
  ignore (Interp.invoke inst "down" [ Values.I32 5l ]);
  let down = fn_by_name prof "down" in
  Alcotest.(check int) "activations" 6 down.Profile.calls;
  (* recursion counted once per outermost activation: the total equals
     everything attributed, not a multiple of it *)
  Alcotest.(check int) "total not double-counted"
    (Profile.total_fuel prof) down.Profile.total_fuel;
  Alcotest.(check int) "self = total for self-recursive leaf"
    down.Profile.self_fuel down.Profile.total_fuel

let test_folded_format () =
  let prof, _ = run_two_level ~engine:`Interp in
  let folded = Trace_export.folded prof in
  Alcotest.(check string) "folded stacks" "main 3\nmain;leaf 3\n" folded;
  (* each line must parse as "path<space>positive-int" *)
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "bad folded line: %s" line
      | Some i ->
          let n = String.sub line (i + 1) (String.length line - i - 1) in
          Alcotest.(check bool) "positive weight" true (int_of_string n > 0))
    (String.split_on_char '\n' (String.trim folded));
  let by_cycles = Trace_export.folded ~metric:`Cycles prof in
  Alcotest.(check string) "no cycles on a constant clock" "" by_cycles

let test_name_section_roundtrip () =
  let m = Wat.parse trap_wat in
  Alcotest.(check (list (pair int string)))
    "wat $ids collected" [ (0, "boom"); (1, "mid"); (2, "top") ]
    m.Ast.names;
  let m' = Binary.decode (Binary.encode m) in
  Alcotest.(check bool) "module round-trips" true (m = m');
  Alcotest.(check (option string)) "func_name from name section"
    (Some "mid") (Binary.func_name m' 1);
  (* encoding is canonical: a second round-trip is byte-identical *)
  Alcotest.(check string) "stable encoding" (Binary.encode m) (Binary.encode m')

let test_name_fallbacks () =
  (* no name section: exports, then module.name for imports *)
  let wat =
    {|(module
        (import "env" "tick" (func (param i32)))
        (func (export "visible") (drop (i32.const 1)))
        (func (drop (i32.const 2))))|}
  in
  let m = Wat.parse wat in
  Alcotest.(check (list (pair int string))) "no debug names" [] m.Ast.names;
  Alcotest.(check (option string)) "import fallback" (Some "env.tick")
    (Ast.func_name m 0);
  Alcotest.(check (option string)) "export fallback" (Some "visible")
    (Ast.func_name m 1);
  Alcotest.(check (option string)) "anonymous" None (Ast.func_name m 2)

let test_disabled_profiler_is_free () =
  (* identical fuel with hooks absent: metering is independent of the
     observer, and no hook means one [None] branch per call *)
  let run hooked =
    let inst = Interp.instantiate (Wat.parse two_level_wat) in
    if hooked then attach (Profile.create ()) inst;
    ignore (Interp.invoke inst "go" []);
    Interp.fuel_used inst
  in
  Alcotest.(check int) "same fuel" (run false) (run true)

let test_report_rendering () =
  let prof, _ = run_two_level ~engine:`Aot in
  let table = Report.profile_table prof in
  Alcotest.(check bool) "table lists main" true (contains table "main");
  let obs = Obs.create () in
  let rendered = Report.render ~profile:prof obs in
  Alcotest.(check bool) "render has hot section" true
    (contains rendered "hot wasm functions");
  let json = Report.to_json ~profile:prof obs in
  Alcotest.(check bool) "json has wasm_profile" true
    (contains json "\"wasm_profile\"");
  Alcotest.(check bool) "json has self_instr" true
    (contains json "\"self_instr\":3")

(* [bench profile] turns engine parity into an audit, so a mismatch
   exits 1 instead of printing and passing. *)
let test_parity_audit () =
  let run exit_fuel =
    let p = Profile.create () in
    Profile.enter p ~fuel:0 7;
    Profile.exit p ~fuel:exit_fuel 7;
    p
  in
  Alcotest.(check bool) "identical profiles balance" true
    (Twine_obs.Audit.ok (Profile.parity (run 10) (run 10)));
  let forced = Profile.parity (run 10) (run 11) in
  Alcotest.(check int) "a forced mismatch leaves one function" 1 (Twine_obs.Audit.residue forced);
  Alcotest.(check bool) "and fails the check" true (Twine_obs.Audit.check [ forced ] <> [])

let () =
  Alcotest.run "twine_profile"
    [
      ( "shadow-stack",
        [
          Alcotest.test_case "exact attribution (both engines)" `Quick
            test_shadow_stack_attribution;
          Alcotest.test_case "hostcall cycles to caller" `Quick
            test_hostcall_attribution;
          Alcotest.test_case "reentrant host call" `Quick test_reentrant_host_call;
          Alcotest.test_case "recursion totals" `Quick test_recursion_totals;
          Alcotest.test_case "disabled profiler is free" `Quick
            test_disabled_profiler_is_free;
        ] );
      ( "engine-parity",
        [
          Alcotest.test_case "two-level module" `Quick test_engine_parity_two_level;
          Alcotest.test_case "parity audit fails on a mismatch" `Quick test_parity_audit;
          Alcotest.test_case "all polybench kernels" `Slow
            test_engine_parity_polybench;
        ] );
      ( "traps",
        [
          Alcotest.test_case "symbolic backtrace (both engines)" `Quick
            test_trap_backtrace;
          Alcotest.test_case "backtrace without profiler" `Quick
            test_trap_backtrace_unprofiled;
        ] );
      ( "export",
        [
          Alcotest.test_case "folded stacks" `Quick test_folded_format;
          Alcotest.test_case "report + json" `Quick test_report_rendering;
        ] );
      ( "names",
        [
          Alcotest.test_case "name-section round-trip" `Quick
            test_name_section_roundtrip;
          Alcotest.test_case "fallback symbolication" `Quick test_name_fallbacks;
        ] );
    ]
