(* PolyBench suite tests: every kernel must produce bit-identical results
   on the native closure build, the Wasm interpreter, and the Wasm AoT
   engine — a strong end-to-end cross-check of the whole Wasm stack. *)

open Twine_polybench

let kernels = Kernels.all ~scale:0.5 ()

let test_suite_complete () =
  Alcotest.(check int) "30 kernels" 30 (List.length kernels);
  let names = List.map (fun k -> k.Kernel_dsl.name) kernels in
  Alcotest.(check int) "unique names" 30
    (List.length (List.sort_uniq compare names))

let test_kernel_validates k () =
  let d_interp = Suite.validate ~engine:`Interp k in
  Alcotest.(check (float 0.)) "native = wasm-interp" 0. d_interp;
  let d_aot = Suite.validate ~engine:`Aot k in
  Alcotest.(check (float 0.)) "native = wasm-aot" 0. d_aot

let test_outputs_nontrivial k () =
  let r = Suite.run_native k in
  let sum = Suite.checksum r in
  Alcotest.(check bool)
    (Printf.sprintf "%s produces nonzero data (checksum %g)" k.Kernel_dsl.name sum)
    true
    (Float.abs sum > 1e-12)

let test_modules_validate k () =
  let m, _ = Kernel_dsl.comp_wasm k in
  Alcotest.(check bool)
    (k.Kernel_dsl.name ^ " module passes the validator")
    true
    (Twine_wasm.Validate.is_valid m)

let test_modules_roundtrip_binary k () =
  let m, _ = Kernel_dsl.comp_wasm k in
  let m' = Twine_wasm.Binary.decode (Twine_wasm.Binary.encode m) in
  Alcotest.(check bool) (k.Kernel_dsl.name ^ " binary roundtrip") true (m = m')

(* Timing is warm on both sides, but [fuel] and the hooks still cover
   exactly one run. *)
let test_warm_run_counts_one () =
  List.iter
    (fun k ->
      let m, _ = Kernel_dsl.comp_wasm k in
      let cold = Twine_wasm.Interp.instantiate m in
      ignore (Twine_wasm.Interp.invoke cold "kernel" []);
      let enters = ref 0 in
      let hooks _ = { Twine_wasm.Instance.on_enter = (fun _ -> incr enters); on_exit = ignore } in
      let r = Suite.run_wasm ~hooks ~engine:`Aot k in
      let name = k.Kernel_dsl.name in
      Alcotest.(check int) (name ^ ": one run's fuel")
        (Twine_wasm.Interp.fuel_used cold) r.Suite.fuel;
      Alcotest.(check int) (name ^ ": hooks see the timed run only") 1 !enters)
    kernels

let per_kernel mk =
  List.map (fun k -> Alcotest.test_case k.Kernel_dsl.name `Quick (mk k)) kernels

let suite =
  [ ("suite", [ Alcotest.test_case "complete" `Quick test_suite_complete ]);
    ("cross-validation", per_kernel test_kernel_validates);
    ("nontrivial", per_kernel test_outputs_nontrivial);
    ("validator", per_kernel test_modules_validate);
    ("binary", per_kernel test_modules_roundtrip_binary);
    ("timing", [ Alcotest.test_case "warm run counts one run" `Quick test_warm_run_counts_one ]);
  ]

let () = Alcotest.run "twine_polybench" suite
