(* WebAssembly engine tests: numerics, control flow, memory, linking,
   interpreter-vs-AoT agreement, and (later sections) text/binary codecs
   and the validator. *)

open Twine_wasm
open Twine_wasm.Ast
open Twine_wasm.Values
module B = Builder

let value = Alcotest.testable (Fmt.of_to_string Values.to_string) ( = )

(* Build a module with one exported function "f". *)
let mk_func ~params ~results ~locals body =
  let b = B.create () in
  ignore (B.add_func b ~name:"f" ~params ~results ~locals body);
  B.build b

let run_both ?(aot_only = false) m name args =
  let i1 = Interp.instantiate m in
  let r_interp = Interp.invoke i1 name args in
  let i2 = Interp.instantiate m in
  ignore (Aot.compile_instance i2);
  let r_aot = Interp.invoke i2 name args in
  if not aot_only then
    Alcotest.(check (list value)) "interp = aot" r_interp r_aot;
  r_interp

(* --- arithmetic --- *)

let test_i32_arith () =
  let m =
    mk_func ~params:[ Types.I32; Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0; Local_get 1; I32_binop Add; Local_get 0; I32_binop Mul ]
  in
  Alcotest.(check (list value)) "(a+b)*a" [ I32 30l ]
    (run_both m "f" [ I32 5l; I32 1l ])

let test_i32_div_semantics () =
  let div op a b =
    let m =
      mk_func ~params:[ Types.I32; Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
        [ Local_get 0; Local_get 1; I32_binop op ]
    in
    run_both m "f" [ I32 a; I32 b ]
  in
  Alcotest.(check (list value)) "-7/2 truncates" [ I32 (-3l) ] (div Div_s (-7l) 2l);
  Alcotest.(check (list value)) "unsigned div" [ I32 2147483644l ]
    (div Div_u (-7l) 2l);
  Alcotest.(check (list value)) "rem_s sign" [ I32 (-1l) ] (div Rem_s (-7l) 2l);
  Alcotest.check_raises "div by zero" (Trap "integer divide by zero") (fun () ->
      ignore (div Div_s 1l 0l));
  Alcotest.check_raises "min/-1 overflow" (Trap "integer overflow") (fun () ->
      ignore (div Div_s Int32.min_int (-1l)))

let test_i32_bitops () =
  let un op v =
    let m =
      mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
        [ Local_get 0; I32_unop op ]
    in
    match run_both m "f" [ I32 v ] with [ I32 r ] -> r | _ -> assert false
  in
  Alcotest.(check int32) "clz 1" 31l (un Clz 1l);
  Alcotest.(check int32) "clz 0" 32l (un Clz 0l);
  Alcotest.(check int32) "ctz 8" 3l (un Ctz 8l);
  Alcotest.(check int32) "popcnt" 8l (un Popcnt 0xff000000l)

let test_i32_rotations () =
  let bin op a b =
    let m =
      mk_func ~params:[ Types.I32; Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
        [ Local_get 0; Local_get 1; I32_binop op ]
    in
    match run_both m "f" [ I32 a; I32 b ] with [ I32 r ] -> r | _ -> assert false
  in
  Alcotest.(check int32) "rotl" 0x00000003l (bin Rotl 0x80000001l 1l);
  Alcotest.(check int32) "rotr" 0xc0000000l (bin Rotr 0x80000001l 1l);
  Alcotest.(check int32) "shr_u" 0x40000000l (bin Shr_u Int32.min_int 1l);
  Alcotest.(check int32) "shr_s" 0xc0000000l (bin Shr_s Int32.min_int 1l);
  Alcotest.(check int32) "shift masks to 5 bits" 2l (bin Shl 1l 33l)

let test_i64_arith () =
  let m =
    mk_func ~params:[ Types.I64; Types.I64 ] ~results:[ Types.I64 ] ~locals:[]
      [ Local_get 0; Local_get 1; I64_binop Mul ]
  in
  Alcotest.(check (list value)) "i64 mul" [ I64 49_000_000_000_000L ]
    (run_both m "f" [ I64 7_000_000L; I64 7_000_000L ])

let test_f64_arith () =
  let m =
    mk_func ~params:[ Types.F64; Types.F64 ] ~results:[ Types.F64 ] ~locals:[]
      [ Local_get 0; Local_get 1; F64_binop Fdiv; F64_unop Sqrt ]
  in
  Alcotest.(check (list value)) "sqrt(a/b)" [ F64 3. ]
    (run_both m "f" [ F64 18.; F64 2. ])

let test_f32_rounding () =
  (* f32 arithmetic must round to 32-bit precision: 1 + 2^-30 = 1 in f32 *)
  let m =
    mk_func ~params:[ Types.F32; Types.F32 ] ~results:[ Types.F32 ] ~locals:[]
      [ Local_get 0; Local_get 1; F32_binop Fadd ]
  in
  Alcotest.(check (list value)) "f32 precision" [ F32 1. ]
    (run_both m "f" [ F32 1.; F32 (Int32.float_of_bits 0x30800000l) ])

let test_float_nearest_even () =
  let near v =
    let m =
      mk_func ~params:[ Types.F64 ] ~results:[ Types.F64 ] ~locals:[]
        [ Local_get 0; F64_unop Nearest ]
    in
    match run_both m "f" [ F64 v ] with [ F64 r ] -> r | _ -> assert false
  in
  Alcotest.(check (float 0.)) "2.5 -> 2" 2. (near 2.5);
  Alcotest.(check (float 0.)) "3.5 -> 4" 4. (near 3.5);
  Alcotest.(check (float 0.)) "-0.5 -> -0" 0. (near (-0.5));
  Alcotest.(check (float 0.)) "0.7 -> 1" 1. (near 0.7)

let test_trunc_traps () =
  let m =
    mk_func ~params:[ Types.F64 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0; Cvt I32_trunc_f64_s ]
  in
  Alcotest.(check (list value)) "in range" [ I32 (-3l) ] (run_both m "f" [ F64 (-3.9) ]);
  Alcotest.check_raises "nan traps" (Trap "invalid conversion to integer") (fun () ->
      ignore (run_both m "f" [ F64 Float.nan ]));
  Alcotest.check_raises "overflow traps" (Trap "integer overflow") (fun () ->
      ignore (run_both m "f" [ F64 3e9 ]))

let test_conversions () =
  let cvt op v =
    let vt = Values.type_of v in
    let rt =
      match op with
      | I32_wrap_i64 | I32_reinterpret_f32 -> Types.I32
      | I64_extend_i32_u | I64_extend_i32_s -> Types.I64
      | F64_convert_i64_u | F64_convert_i32_u -> Types.F64
      | F32_demote_f64 -> Types.F32
      | _ -> Types.F64
    in
    let m = mk_func ~params:[ vt ] ~results:[ rt ] ~locals:[] [ Local_get 0; Cvt op ] in
    List.hd (run_both m "f" [ v ])
  in
  Alcotest.check value "wrap" (I32 (-1l)) (cvt I32_wrap_i64 (I64 0xffffffffL));
  Alcotest.check value "extend_u" (I64 0xffffffffL) (cvt I64_extend_i32_u (I32 (-1l)));
  Alcotest.check value "extend_s" (I64 (-1L)) (cvt I64_extend_i32_s (I32 (-1l)));
  Alcotest.check value "convert u32" (F64 4294967295.) (cvt F64_convert_i32_u (I32 (-1l)));
  Alcotest.check value "convert u64" (F64 1.8446744073709552e19)
    (cvt F64_convert_i64_u (I64 (-1L)))

let test_sign_extension_ops () =
  let m =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0; Cvt I32_extend8_s ]
  in
  Alcotest.(check (list value)) "extend8_s" [ I32 (-1l) ] (run_both m "f" [ I32 0xffl ])

(* --- control flow --- *)

let test_factorial_loop () =
  (* local 1 = acc; while local0 > 1 { acc *= local0; local0-- } *)
  let m =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[ Types.I32 ]
      [ I32_const 1l; Local_set 1;
        Block (None, [
          Loop (None, [
            Local_get 0; I32_const 1l; I32_relop Le_s; Br_if 1;
            Local_get 1; Local_get 0; I32_binop Mul; Local_set 1;
            Local_get 0; I32_const 1l; I32_binop Sub; Local_set 0;
            Br 0 ]) ]);
        Local_get 1 ]
  in
  Alcotest.(check (list value)) "10!" [ I32 3628800l ] (run_both m "f" [ I32 10l ])

let test_recursive_fib () =
  let b = B.create () in
  let fib =
    B.add_func b ~name:"fib" ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0; I32_const 2l; I32_relop Lt_s;
        If (Some Types.I32,
            [ Local_get 0 ],
            [ Local_get 0; I32_const 1l; I32_binop Sub; Call 0;
              Local_get 0; I32_const 2l; I32_binop Sub; Call 0;
              I32_binop Add ]) ]
  in
  ignore fib;
  let m = B.build b in
  Alcotest.(check (list value)) "fib 15" [ I32 610l ] (run_both m "fib" [ I32 15l ])

let test_block_result_br () =
  (* br with a value out of a block *)
  let m =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Block (Some Types.I32,
          [ Local_get 0;
            Local_get 0; I32_const 0l; I32_relop Gt_s;
            Br_if 0;
            Drop; I32_const 42l ]) ]
  in
  Alcotest.(check (list value)) "positive passes through" [ I32 7l ]
    (run_both m "f" [ I32 7l ]);
  Alcotest.(check (list value)) "non-positive replaced" [ I32 42l ]
    (run_both m "f" [ I32 (-3l) ])

let test_br_table () =
  let m =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Block (None, [
          Block (None, [
            Block (None, [ Local_get 0; Br_table ([ 0; 1 ], 2) ]);
            (* case 0 *) I32_const 100l; Return ]);
          (* case 1 *) I32_const 200l; Return ]);
        (* default *) I32_const 300l ]
  in
  Alcotest.(check (list value)) "case 0" [ I32 100l ] (run_both m "f" [ I32 0l ]);
  Alcotest.(check (list value)) "case 1" [ I32 200l ] (run_both m "f" [ I32 1l ]);
  Alcotest.(check (list value)) "default" [ I32 300l ] (run_both m "f" [ I32 9l ]);
  Alcotest.(check (list value)) "negative -> default" [ I32 300l ]
    (run_both m "f" [ I32 (-1l) ])

let test_select_and_eqz () =
  let m =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ I32_const 11l; I32_const 22l; Local_get 0; I32_eqz; Select ]
  in
  Alcotest.(check (list value)) "zero selects first" [ I32 11l ]
    (run_both m "f" [ I32 0l ]);
  Alcotest.(check (list value)) "nonzero selects second" [ I32 22l ]
    (run_both m "f" [ I32 5l ])

let test_unreachable () =
  let m = mk_func ~params:[] ~results:[] ~locals:[] [ Unreachable ] in
  Alcotest.check_raises "traps" (Trap "unreachable executed") (fun () ->
      ignore (run_both m "f" []))

let test_early_return () =
  let m =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0;
        If (None, [ I32_const 1l; Return ], []);
        I32_const 0l ]
  in
  Alcotest.(check (list value)) "taken" [ I32 1l ] (run_both m "f" [ I32 1l ]);
  Alcotest.(check (list value)) "fallthrough" [ I32 0l ] (run_both m "f" [ I32 0l ])

(* --- memory --- *)

let test_memory_load_store () =
  let b = B.create () in
  B.add_memory b 1;
  ignore
    (B.add_func b ~name:"f" ~params:[ Types.I32; Types.I32 ] ~results:[ Types.I32 ]
       ~locals:[]
       [ Local_get 0; Local_get 1; I32_store { offset = 0; align = 2 };
         Local_get 0; I32_load { offset = 0; align = 2 } ]);
  let m = B.build b in
  Alcotest.(check (list value)) "store/load" [ I32 987654321l ]
    (run_both m "f" [ I32 64l; I32 987654321l ])

let test_memory_widths_and_offsets () =
  let b = B.create () in
  B.add_memory b 1;
  ignore
    (B.add_func b ~name:"f" ~params:[] ~results:[ Types.I32 ] ~locals:[]
       [ (* store -2 as a byte at 10, read back sign- and zero-extended *)
         B.i32 10; B.i32 (-2); I32_store8 { offset = 0; align = 0 };
         B.i32 10; I32_load8_s { offset = 0; align = 0 };
         B.i32 10; I32_load8_u { offset = 0; align = 0 };
         I32_binop Add ]);
  let m = B.build b in
  (* -2 + 254 = 252 *)
  Alcotest.(check (list value)) "sign vs zero extension" [ I32 252l ]
    (run_both m "f" [])

let test_memory_data_segment () =
  let b = B.create () in
  B.add_memory b 1;
  B.add_data b ~offset:100 "\x2a\x00\x00\x00";
  ignore
    (B.add_func b ~name:"f" ~params:[] ~results:[ Types.I32 ] ~locals:[]
       [ B.i32 100; I32_load { offset = 0; align = 2 } ]);
  Alcotest.(check (list value)) "data initialised" [ I32 42l ]
    (run_both (B.build b) "f" [])

let test_memory_oob_traps () =
  let b = B.create () in
  B.add_memory b 1;
  ignore
    (B.add_func b ~name:"f" ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
       [ Local_get 0; I32_load { offset = 0; align = 2 } ]);
  let m = B.build b in
  Alcotest.check_raises "oob" (Trap "out of bounds memory access") (fun () ->
      ignore (run_both m "f" [ I32 65533l ]));
  Alcotest.(check (list value)) "last word ok" [ I32 0l ]
    (run_both m "f" [ I32 65532l ])

let test_memory_grow_and_size () =
  let b = B.create () in
  B.add_memory b ~max:3 1;
  ignore
    (B.add_func b ~name:"f" ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
       [ Local_get 0; Memory_grow; Drop; Memory_size ]);
  let m = B.build b in
  Alcotest.(check (list value)) "grow by 1" [ I32 2l ] (run_both m "f" [ I32 1l ]);
  (* growth beyond max returns -1 from memory.grow and size is unchanged *)
  let b2 = B.create () in
  B.add_memory b2 ~max:2 1;
  ignore
    (B.add_func b2 ~name:"f" ~params:[] ~results:[ Types.I32 ] ~locals:[]
       [ B.i32 5; Memory_grow ]);
  Alcotest.(check (list value)) "grow fails" [ I32 (-1l) ] (run_both (B.build b2) "f" [])

(* --- globals --- *)

let test_globals () =
  let b = B.create () in
  let g = B.add_global b ~mut:Types.Var Types.I32 [ B.i32 10 ] in
  ignore
    (B.add_func b ~name:"bump" ~params:[] ~results:[ Types.I32 ] ~locals:[]
       [ Global_get g; B.i32 1; I32_binop Add; Global_set g; Global_get g ]);
  let m = B.build b in
  let inst = Interp.instantiate m in
  Alcotest.(check (list value)) "11" [ I32 11l ] (Interp.invoke inst "bump" []);
  Alcotest.(check (list value)) "12" [ I32 12l ] (Interp.invoke inst "bump" [])

let test_immutable_global_set_traps () =
  let b = B.create () in
  let g = B.add_global b ~mut:Types.Const Types.I32 [ B.i32 1 ] in
  ignore
    (B.add_func b ~name:"f" ~params:[] ~results:[] ~locals:[]
       [ B.i32 2; Global_set g ]);
  Alcotest.check_raises "immutable" (Trap "assignment to immutable global") (fun () ->
      ignore (run_both (B.build b) "f" []))

(* --- tables / call_indirect --- *)

let test_call_indirect () =
  let b = B.create () in
  B.add_table b 4;
  let add1 =
    B.add_func b ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0; B.i32 1; I32_binop Add ]
  in
  let dbl =
    B.add_func b ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0; B.i32 2; I32_binop Mul ]
  in
  B.add_elem b ~offset:0 [ add1; dbl ];
  let ti = B.add_type b ~params:[ Types.I32 ] ~results:[ Types.I32 ] in
  ignore
    (B.add_func b ~name:"dispatch" ~params:[ Types.I32; Types.I32 ]
       ~results:[ Types.I32 ] ~locals:[]
       [ Local_get 1; Local_get 0; Call_indirect ti ]);
  let m = B.build b in
  Alcotest.(check (list value)) "slot 0" [ I32 8l ]
    (run_both m "dispatch" [ I32 0l; I32 7l ]);
  Alcotest.(check (list value)) "slot 1" [ I32 14l ]
    (run_both m "dispatch" [ I32 1l; I32 7l ]);
  Alcotest.check_raises "uninitialised" (Trap "uninitialized element") (fun () ->
      ignore (run_both m "dispatch" [ I32 3l; I32 7l ]));
  Alcotest.check_raises "out of range" (Trap "undefined element") (fun () ->
      ignore (run_both m "dispatch" [ I32 99l; I32 7l ]))

(* --- imports / host functions --- *)

let test_host_function_import () =
  let b = B.create () in
  let logf =
    B.import_func b ~module_:"env" ~name:"add_host" ~params:[ Types.I32; Types.I32 ]
      ~results:[ Types.I32 ]
  in
  ignore
    (B.add_func b ~name:"f" ~params:[] ~results:[ Types.I32 ] ~locals:[]
       [ B.i32 20; B.i32 22; Call logf ]);
  let m = B.build b in
  let host =
    Instance.host_func ~name:"add_host"
      { Types.params = [ Types.I32; Types.I32 ]; results = [ Types.I32 ] }
      (function
        | [ I32 a; I32 b ] -> [ I32 (Int32.add a b) ]
        | _ -> assert false)
  in
  let inst =
    Interp.instantiate ~imports:[ ("env", "add_host", Instance.Extern_func host) ] m
  in
  Alcotest.(check (list value)) "host add" [ I32 42l ] (Interp.invoke inst "f" [])

let test_missing_import_fails () =
  let b = B.create () in
  ignore (B.import_func b ~module_:"env" ~name:"gone" ~params:[] ~results:[]);
  ignore (B.add_func b ~name:"f" ~params:[] ~results:[] ~locals:[] [ Nop ]);
  Alcotest.(check bool) "link error" true
    (try
       ignore (Interp.instantiate (B.build b));
       false
     with Instance.Link_error _ -> true)

let test_import_type_mismatch () =
  let b = B.create () in
  ignore (B.import_func b ~module_:"env" ~name:"h" ~params:[ Types.I32 ] ~results:[]);
  ignore (B.add_func b ~name:"f" ~params:[] ~results:[] ~locals:[] [ Nop ]);
  let host =
    Instance.host_func ~name:"h" { Types.params = []; results = [] } (fun _ -> [])
  in
  Alcotest.(check bool) "type mismatch" true
    (try
       ignore
         (Interp.instantiate ~imports:[ ("env", "h", Instance.Extern_func host) ]
            (B.build b));
       false
     with Instance.Link_error _ -> true)

let test_start_function () =
  let b = B.create () in
  let g = B.add_global b ~export:"g" ~mut:Types.Var Types.I32 [ B.i32 0 ] in
  let init =
    B.add_func b ~params:[] ~results:[] ~locals:[] [ B.i32 99; Global_set g ]
  in
  B.set_start b init;
  let inst = Interp.instantiate (B.build b) in
  match Instance.export_global inst "g" with
  | Some gi -> Alcotest.check value "start ran" (I32 99l) gi.Instance.g_value
  | None -> Alcotest.fail "no global"

(* --- builder for_ helper + metering --- *)

let test_builder_for_nested () =
  (* sum_{i<10} sum_{j<10} (i*j) = 2025 *)
  let b = B.create () in
  ignore
    (B.add_func b ~name:"f" ~params:[] ~results:[ Types.I32 ]
       ~locals:[ Types.I32; Types.I32; Types.I32 ]
       (B.for_ ~local:0 ~start:[ B.i32 0 ] ~bound:[ B.i32 10 ]
          (B.for_ ~local:1 ~start:[ B.i32 0 ] ~bound:[ B.i32 10 ]
             [ Local_get 2; Local_get 0; Local_get 1; I32_binop Mul; I32_binop Add;
               Local_set 2 ])
        @ [ Local_get 2 ]));
  Alcotest.(check (list value)) "nested loops" [ I32 2025l ] (run_both (B.build b) "f" [])

let test_fuel_metering () =
  let m =
    mk_func ~params:[] ~results:[ Types.I32 ] ~locals:[] [ I32_const 1l; I32_const 2l; I32_binop Add ]
  in
  let inst = Interp.instantiate m in
  ignore (Interp.invoke inst "f" []);
  Alcotest.(check int) "3 instructions executed" 3 (Interp.fuel_used inst)

(* A trap, and then a fuel limit, land mid-way through one straight-line
   block, which the AoT tier charges on entry: both engines must charge
   exactly the prefix the interpreter ran, and keep its side effects. *)
let fuel_and_global ~aot ~limit body =
  let b = B.create () in
  let g = B.add_global b ~mut:Types.Var Types.I32 [ I32_const 0l ] in
  ignore (B.add_func b ~name:"f" ~params:[] ~results:[] ~locals:[] (body g));
  let inst = Interp.instantiate (B.build b) in
  if aot then ignore (Aot.compile_instance inst);
  inst.Instance.fuel_limit <- limit;
  let r = match Interp.invoke inst "f" [] with _ -> "ok" | exception Trap msg -> msg in
  (r, Interp.fuel_used inst, inst.Instance.globals.(g).Instance.g_value)

let test_fuel_trap_mid_block () =
  let body g =
    [ I32_const 1l; Global_set g; I32_const 7l; I32_const 0l; I32_binop Div_s; Global_set g;
      I32_const 3l; Global_set g ]
  in
  List.iter
    (fun aot ->
      let r, fuel, v = fuel_and_global ~aot ~limit:max_int body in
      Alcotest.(check (pair string int)) "trap at the 5th instruction"
        ("integer divide by zero", 5) (r, fuel);
      Alcotest.check value "prefix ran" (I32 1l) v)
    [ false; true ]

let test_fuel_limit_mid_block () =
  let body g =
    [ I32_const 1l; Global_set g; I32_const 2l; Global_set g; I32_const 3l; Global_set g ]
  in
  List.iter
    (fun limit ->
      let expect = fuel_and_global ~aot:false ~limit body in
      let r, fuel, _ = expect in
      Alcotest.(check (pair string int))
        (Printf.sprintf "interp traps past limit %d" limit)
        ((if limit < 6 then "fuel exhausted" else "ok"), if limit < 6 then limit + 1 else 6)
        (r, fuel);
      Alcotest.(check bool) (Printf.sprintf "aot = interp at limit %d" limit) true
        (fuel_and_global ~aot:true ~limit body = expect))
    [ 0; 1; 2; 3; 5; 6 ]

let test_aot_rejects_ill_typed () =
  let m = mk_func ~params:[] ~results:[ Types.I32 ] ~locals:[] [ I64_const 1L ] in
  Alcotest.(check bool) "Validate.Invalid" true
    (match Aot.compile_instance (Interp.instantiate m) with
    | _ -> false
    | exception Validate.Invalid _ -> true)

let suite_core =
  [ ("numeric", [
      Alcotest.test_case "i32 arithmetic" `Quick test_i32_arith;
      Alcotest.test_case "i32 division" `Quick test_i32_div_semantics;
      Alcotest.test_case "i32 bitops" `Quick test_i32_bitops;
      Alcotest.test_case "i32 rotations/shifts" `Quick test_i32_rotations;
      Alcotest.test_case "i64 arithmetic" `Quick test_i64_arith;
      Alcotest.test_case "f64 arithmetic" `Quick test_f64_arith;
      Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
      Alcotest.test_case "nearest ties-to-even" `Quick test_float_nearest_even;
      Alcotest.test_case "trunc traps" `Quick test_trunc_traps;
      Alcotest.test_case "conversions" `Quick test_conversions;
      Alcotest.test_case "sign-extension ops" `Quick test_sign_extension_ops;
    ]);
    ("control", [
      Alcotest.test_case "factorial loop" `Quick test_factorial_loop;
      Alcotest.test_case "recursive fib" `Quick test_recursive_fib;
      Alcotest.test_case "br with value" `Quick test_block_result_br;
      Alcotest.test_case "br_table" `Quick test_br_table;
      Alcotest.test_case "select/eqz" `Quick test_select_and_eqz;
      Alcotest.test_case "unreachable" `Quick test_unreachable;
      Alcotest.test_case "early return" `Quick test_early_return;
    ]);
    ("memory", [
      Alcotest.test_case "load/store" `Quick test_memory_load_store;
      Alcotest.test_case "widths+extension" `Quick test_memory_widths_and_offsets;
      Alcotest.test_case "data segment" `Quick test_memory_data_segment;
      Alcotest.test_case "oob traps" `Quick test_memory_oob_traps;
      Alcotest.test_case "grow/size" `Quick test_memory_grow_and_size;
    ]);
    ("module", [
      Alcotest.test_case "globals" `Quick test_globals;
      Alcotest.test_case "immutable global" `Quick test_immutable_global_set_traps;
      Alcotest.test_case "call_indirect" `Quick test_call_indirect;
      Alcotest.test_case "host import" `Quick test_host_function_import;
      Alcotest.test_case "missing import" `Quick test_missing_import_fails;
      Alcotest.test_case "import type mismatch" `Quick test_import_type_mismatch;
      Alcotest.test_case "start function" `Quick test_start_function;
      Alcotest.test_case "builder nested for" `Quick test_builder_for_nested;
      Alcotest.test_case "fuel metering" `Quick test_fuel_metering;
      Alcotest.test_case "trap mid fuel block" `Quick test_fuel_trap_mid_block;
      Alcotest.test_case "fuel limit mid block" `Quick test_fuel_limit_mid_block;
      Alcotest.test_case "aot rejects ill-typed" `Quick test_aot_rejects_ill_typed;
    ]);
  ]

(* --- WAT text format --- *)

let wat_invoke src name args =
  let inst = Interp.instantiate (Wat.parse src) in
  Interp.invoke inst name args

let test_wat_folded () =
  let r =
    wat_invoke
      {|(module
          (func (export "add") (param $a i32) (param $b i32) (result i32)
            (i32.add (local.get $a) (local.get $b))))|}
      "add" [ I32 2l; I32 40l ]
  in
  Alcotest.(check (list value)) "folded add" [ I32 42l ] r

let test_wat_flat_loop () =
  let src =
    {|(module
        (func (export "sum") (param $n i32) (result i32)
          (local $acc i32)
          block $exit
            loop $top
              local.get $n
              i32.eqz
              br_if $exit
              local.get $acc
              local.get $n
              i32.add
              local.set $acc
              local.get $n
              i32.const 1
              i32.sub
              local.set $n
              br $top
            end
          end
          local.get $acc))|}
  in
  Alcotest.(check (list value)) "sum 1..10" [ I32 55l ]
    (wat_invoke src "sum" [ I32 10l ])

let test_wat_memory_data () =
  let src =
    {|(module
        (memory (export "mem") 1)
        (data (i32.const 8) "\2a\00\00\00")
        (func (export "get") (result i32)
          (i32.load (i32.const 8))))|}
  in
  Alcotest.(check (list value)) "data + load" [ I32 42l ] (wat_invoke src "get" [])

let test_wat_globals_and_if () =
  let src =
    {|(module
        (global $g (mut i32) (i32.const 10))
        (func (export "step") (param $x i32) (result i32)
          (if (result i32) (i32.gt_s (local.get $x) (i32.const 0))
            (then (global.get $g))
            (else (i32.const -1)))))|}
  in
  Alcotest.(check (list value)) "then" [ I32 10l ] (wat_invoke src "step" [ I32 5l ]);
  Alcotest.(check (list value)) "else" [ I32 (-1l) ] (wat_invoke src "step" [ I32 0l ])

let test_wat_call_named () =
  let src =
    {|(module
        (func $double (param i32) (result i32)
          (i32.mul (local.get 0) (i32.const 2)))
        (func (export "quad") (param i32) (result i32)
          (call $double (call $double (local.get 0)))))|}
  in
  Alcotest.(check (list value)) "quad" [ I32 44l ] (wat_invoke src "quad" [ I32 11l ])

let test_wat_import () =
  let src =
    {|(module
        (import "env" "mul" (func $mul (param i32 i32) (result i32)))
        (func (export "sq") (param i32) (result i32)
          (call $mul (local.get 0) (local.get 0))))|}
  in
  let host =
    Instance.host_func ~name:"mul"
      { Types.params = [ Types.I32; Types.I32 ]; results = [ Types.I32 ] }
      (function [ I32 a; I32 b ] -> [ I32 (Int32.mul a b) ] | _ -> assert false)
  in
  let inst =
    Interp.instantiate
      ~imports:[ ("env", "mul", Instance.Extern_func host) ]
      (Wat.parse src)
  in
  Alcotest.(check (list value)) "sq" [ I32 49l ] (Interp.invoke inst "sq" [ I32 7l ])

let test_wat_export_field () =
  let src =
    {|(module
        (func $hidden (result i32) (i32.const 5))
        (export "visible" (func $hidden)))|}
  in
  Alcotest.(check (list value)) "separate export field" [ I32 5l ]
    (wat_invoke src "visible" [])

let test_wat_comments_and_hex () =
  let src =
    {|(module ;; line comment
        (; block (; nested ;) comment ;)
        (func (export "f") (result i32)
          (i32.and (i32.const 0xff) (i32.const 0x3c))))|}
  in
  Alcotest.(check (list value)) "hex + comments" [ I32 0x3cl ] (wat_invoke src "f" [])

let test_wat_f64 () =
  let src =
    {|(module
        (func (export "hyp") (param f64 f64) (result f64)
          (f64.sqrt (f64.add
            (f64.mul (local.get 0) (local.get 0))
            (f64.mul (local.get 1) (local.get 1))))))|}
  in
  Alcotest.(check (list value)) "3-4-5" [ F64 5. ]
    (wat_invoke src "hyp" [ F64 3.; F64 4. ])

let test_wat_parse_errors () =
  let bad = [ "(module (func (export \"f\") (result i32) (i32.unknown)))";
              "(module (func"; "(module (memory))" ] in
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects: " ^ src) true
        (try
           ignore (Wat.parse src);
           false
         with Wat.Parse_error _ -> true))
    bad

let test_wat_start () =
  let src =
    {|(module
        (global $g (mut i32) (i32.const 0))
        (func $init (global.set $g (i32.const 7)))
        (start $init)
        (func (export "read") (result i32) (global.get $g)))|}
  in
  Alcotest.(check (list value)) "start ran" [ I32 7l ] (wat_invoke src "read" [])

let suite_wat =
  [ ("wat", [
      Alcotest.test_case "folded" `Quick test_wat_folded;
      Alcotest.test_case "flat loop + labels" `Quick test_wat_flat_loop;
      Alcotest.test_case "memory + data" `Quick test_wat_memory_data;
      Alcotest.test_case "globals + if/else" `Quick test_wat_globals_and_if;
      Alcotest.test_case "named calls" `Quick test_wat_call_named;
      Alcotest.test_case "imports" `Quick test_wat_import;
      Alcotest.test_case "export field" `Quick test_wat_export_field;
      Alcotest.test_case "comments + hex" `Quick test_wat_comments_and_hex;
      Alcotest.test_case "f64" `Quick test_wat_f64;
      Alcotest.test_case "parse errors" `Quick test_wat_parse_errors;
      Alcotest.test_case "start" `Quick test_wat_start;
    ]);
  ]

(* --- binary codec --- *)

let roundtrip m = Binary.decode (Binary.encode m)

let test_binary_roundtrip_simple () =
  let m =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[ Types.I64 ]
      [ Local_get 0; I32_const 5l; I32_binop Add ]
  in
  let m' = roundtrip m in
  Alcotest.(check bool) "same module" true (m = m');
  Alcotest.(check (list value)) "decoded executes" [ I32 12l ]
    (Interp.invoke (Interp.instantiate m') "f" [ I32 7l ])

let test_binary_magic () =
  let enc = Binary.encode (mk_func ~params:[] ~results:[] ~locals:[] [ Nop ]) in
  Alcotest.(check string) "magic" "\x00asm\x01\x00\x00\x00" (String.sub enc 0 8);
  Alcotest.(check bool) "bad magic rejected" true
    (try
       ignore (Binary.decode ("XXXX" ^ String.sub enc 4 (String.length enc - 4)));
       false
     with Binary.Decode_error _ -> true)

let test_binary_full_module () =
  let b = B.create () in
  B.add_memory b ~max:4 2;
  B.add_table b 3;
  B.add_data b ~offset:10 "payload";
  let g = B.add_global b ~export:"g" ~mut:Types.Var Types.I64 [ I64_const 9L ] in
  ignore g;
  let callee =
    B.add_func b ~params:[ Types.F64 ] ~results:[ Types.F64 ] ~locals:[]
      [ Local_get 0; F64_unop Sqrt ]
  in
  B.add_elem b ~offset:0 [ callee ];
  ignore
    (B.add_func b ~name:"main" ~params:[] ~results:[ Types.F64 ]
       ~locals:[ Types.F64 ]
       [ F64_const 16.; Local_set 0;
         Block (Some Types.F64, [ Local_get 0; Call callee; Br 0 ]) ]);
  let m = B.build b in
  let m' = roundtrip m in
  Alcotest.(check bool) "structural equality" true (m = m');
  Alcotest.(check (list value)) "executes" [ F64 4. ]
    (Interp.invoke (Interp.instantiate m') "main" [])

let test_binary_negative_leb () =
  let m =
    mk_func ~params:[] ~results:[ Types.I64 ] ~locals:[]
      [ I64_const (-123456789L) ]
  in
  Alcotest.(check (list value)) "negative i64 const" [ I64 (-123456789L) ]
    (Interp.invoke (Interp.instantiate (roundtrip m)) "f" [])

let test_binary_truncated () =
  let enc = Binary.encode (mk_func ~params:[] ~results:[] ~locals:[] [ Nop ]) in
  Alcotest.(check bool) "truncated rejected" true
    (try
       ignore (Binary.decode (String.sub enc 0 (String.length enc - 2)));
       false
     with Binary.Decode_error _ -> true)

let prop_binary_roundtrip_wat =
  (* generate tiny random arithmetic functions and roundtrip them *)
  QCheck.Test.make ~name:"encode/decode roundtrip on random bodies" ~count:100
    QCheck.(small_list (int_range 0 5))
    (fun ops ->
      let body =
        List.concat_map
          (fun op ->
            match op with
            | 0 -> [ B.i32 3; B.i32 4; I32_binop Add; Drop ]
            | 1 -> [ I64_const 7L; I64_unop Popcnt; Drop ]
            | 2 -> [ F64_const 1.5; F64_unop Floor; Drop ]
            | 3 -> [ Block (Some Types.I32, [ B.i32 1 ]); Drop ]
            | 4 -> [ B.i32 1; If (None, [ Nop ], [ Unreachable ]) ]
            | _ -> [ Nop ])
          ops
      in
      let m = mk_func ~params:[] ~results:[] ~locals:[] body in
      roundtrip m = m)

(* --- validator --- *)

let valid m = Validate.is_valid m

let test_validate_accepts_good () =
  let m =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[ Types.I32 ]
      [ Local_get 0; Local_set 1; Local_get 1 ]
  in
  Alcotest.(check bool) "good module" true (valid m)

let test_validate_type_mismatch () =
  let m =
    mk_func ~params:[] ~results:[ Types.I32 ] ~locals:[]
      [ F64_const 1.0; I32_unop Clz ]
  in
  Alcotest.(check bool) "f64 into i32 op" false (valid m)

let test_validate_underflow () =
  let m = mk_func ~params:[] ~results:[ Types.I32 ] ~locals:[] [ I32_binop Add ] in
  Alcotest.(check bool) "stack underflow" false (valid m)

let test_validate_missing_result () =
  let m = mk_func ~params:[] ~results:[ Types.I32 ] ~locals:[] [ Nop ] in
  Alcotest.(check bool) "missing result" false (valid m)

let test_validate_extra_values () =
  let m = mk_func ~params:[] ~results:[] ~locals:[] [ I32_const 1l ] in
  Alcotest.(check bool) "extra value at end" false (valid m)

let test_validate_bad_local () =
  let m = mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[] [ Local_get 3 ] in
  Alcotest.(check bool) "local out of range" false (valid m)

let test_validate_bad_branch_depth () =
  let m =
    mk_func ~params:[] ~results:[] ~locals:[] [ Block (None, [ Br 5 ]) ]
  in
  Alcotest.(check bool) "branch depth" false (valid m)

let test_validate_unreachable_polymorphism () =
  (* after unreachable, anything goes — this is valid *)
  let m =
    mk_func ~params:[] ~results:[ Types.I32 ] ~locals:[]
      [ Unreachable; I32_binop Add ]
  in
  Alcotest.(check bool) "stack-polymorphic after unreachable" true (valid m)

let test_validate_if_arms_agree () =
  let good =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0; If (Some Types.I32, [ B.i32 1 ], [ B.i32 2 ]) ]
  in
  Alcotest.(check bool) "agreeing arms" true (valid good);
  let bad =
    mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[]
      [ Local_get 0; If (Some Types.I32, [ B.i32 1 ], [ F64_const 2. ]) ]
  in
  Alcotest.(check bool) "disagreeing arms" false (valid bad)

let test_validate_memory_requirements () =
  let m = mk_func ~params:[] ~results:[ Types.I32 ] ~locals:[]
      [ B.i32 0; I32_load { offset = 0; align = 2 } ] in
  Alcotest.(check bool) "load without memory" false (valid m);
  let b = B.create () in
  B.add_memory b 1;
  ignore (B.add_func b ~name:"f" ~params:[] ~results:[ Types.I32 ] ~locals:[]
            [ B.i32 0; I32_load { offset = 0; align = 5 } ]);
  Alcotest.(check bool) "over-aligned load" false (valid (B.build b))

let test_validate_immutable_global () =
  let b = B.create () in
  let g = B.add_global b ~mut:Types.Const Types.I32 [ B.i32 1 ] in
  ignore (B.add_func b ~name:"f" ~params:[] ~results:[] ~locals:[]
            [ B.i32 2; Global_set g ]);
  Alcotest.(check bool) "set immutable" false (valid (B.build b))

let test_validate_duplicate_export () =
  let b = B.create () in
  let f = B.add_func b ~name:"dup" ~params:[] ~results:[] ~locals:[] [ Nop ] in
  B.export_func b "dup" f;
  Alcotest.(check bool) "duplicate export" false (valid (B.build b))

let test_validate_engine_modules () =
  (* every module the other test groups execute should also validate *)
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ " validates") true (valid m))
    [ ("factorial",
       mk_func ~params:[ Types.I32 ] ~results:[ Types.I32 ] ~locals:[ Types.I32 ]
         [ I32_const 1l; Local_set 1;
           Block (None, [
             Loop (None, [
               Local_get 0; I32_const 1l; I32_relop Le_s; Br_if 1;
               Local_get 1; Local_get 0; I32_binop Mul; Local_set 1;
               Local_get 0; I32_const 1l; I32_binop Sub; Local_set 0;
               Br 0 ]) ]);
           Local_get 1 ]);
      ("wat-parsed",
       Wat.parse
         {|(module (func (export "f") (param i32) (result i32)
             (i32.add (local.get 0) (i32.const 1))))|});
    ]

let qc = QCheck_alcotest.to_alcotest

let suite_codec =
  [ ("binary", [
      Alcotest.test_case "roundtrip simple" `Quick test_binary_roundtrip_simple;
      Alcotest.test_case "magic" `Quick test_binary_magic;
      Alcotest.test_case "full module" `Quick test_binary_full_module;
      Alcotest.test_case "negative leb" `Quick test_binary_negative_leb;
      Alcotest.test_case "truncated" `Quick test_binary_truncated;
      qc prop_binary_roundtrip_wat;
    ]);
    ("validate", [
      Alcotest.test_case "accepts good" `Quick test_validate_accepts_good;
      Alcotest.test_case "type mismatch" `Quick test_validate_type_mismatch;
      Alcotest.test_case "underflow" `Quick test_validate_underflow;
      Alcotest.test_case "missing result" `Quick test_validate_missing_result;
      Alcotest.test_case "extra values" `Quick test_validate_extra_values;
      Alcotest.test_case "bad local" `Quick test_validate_bad_local;
      Alcotest.test_case "bad branch depth" `Quick test_validate_bad_branch_depth;
      Alcotest.test_case "unreachable polymorphism" `Quick test_validate_unreachable_polymorphism;
      Alcotest.test_case "if arms" `Quick test_validate_if_arms_agree;
      Alcotest.test_case "memory rules" `Quick test_validate_memory_requirements;
      Alcotest.test_case "immutable global" `Quick test_validate_immutable_global;
      Alcotest.test_case "duplicate export" `Quick test_validate_duplicate_export;
      Alcotest.test_case "engine modules validate" `Quick test_validate_engine_modules;
    ]);
  ]

let () = Alcotest.run "twine_wasm" (suite_core @ suite_wat @ suite_codec)
