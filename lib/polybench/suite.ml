(* Running kernels on the three execution tiers of Fig 3 and checking
   that they compute the same values. *)

open Twine_wasm

type run_result = {
  wall_ns : int;
  fuel : int;  (* guest instructions executed (0 for native runs) *)
  outputs : (int * float array) list;
}

let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

(* Both sides time a warm run, after one untimed run: a first native run
   would also pay the first-touch page faults of its fresh arrays, while
   the Wasm memory was zeroed at instantiation, outside the timer. *)
let run_native (k : Kernel_dsl.kernel) =
  let run, arr = Kernel_dsl.comp_native k in
  run ();
  let t0 = now_ns () in
  run ();
  let wall_ns = now_ns () - t0 in
  {
    wall_ns;
    fuel = 0;
    outputs = List.map (fun id -> (id, Array.copy (arr id))) k.out_arrays;
  }

(* [hooks] lets a caller attach a call-boundary observer (e.g. the guest
   profiler in twine_obs, which this library does not depend on) to the
   timed run only; it is detached before returning. [fuel] is the timed
   run's count. *)
let run_wasm ?hooks ~engine (k : Kernel_dsl.kernel) =
  let m, lay = Kernel_dsl.comp_wasm k in
  let inst = Interp.instantiate m in
  (match engine with
  | `Aot -> ignore (Aot.compile_instance inst)
  | `Interp -> ());
  ignore (Interp.invoke inst "kernel" []);
  let fuel0 = Interp.fuel_used inst in
  (match hooks with
  | Some mk -> inst.Instance.hooks <- Some (mk inst)
  | None -> ());
  let t0 = now_ns () in
  let finally () = inst.Instance.hooks <- None in
  Fun.protect ~finally (fun () -> ignore (Interp.invoke inst "kernel" []));
  let wall_ns = now_ns () - t0 in
  {
    wall_ns;
    fuel = Interp.fuel_used inst - fuel0;
    outputs =
      List.map (fun id -> (id, Kernel_dsl.read_wasm_array inst lay k id)) k.out_arrays;
  }

(* Maximum absolute difference between native and Wasm outputs; both
   engines implement IEEE f64 so the difference should be exactly zero. *)
let max_divergence a b =
  List.fold_left2
    (fun acc (ida, va) (idb, vb) ->
      assert (ida = idb);
      Array.fold_left max acc (Array.mapi (fun i x -> Float.abs (x -. vb.(i))) va))
    0. a.outputs b.outputs

let validate ?(engine = `Interp) k =
  let n = run_native k in
  let w = run_wasm ~engine k in
  max_divergence n w

let checksum result =
  List.fold_left
    (fun acc (_, a) ->
      Array.fold_left (fun s x -> if Float.is_nan x then s else s +. x) acc a)
    0. result.outputs
