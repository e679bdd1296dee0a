(* Telemetry registry: counters and the flight-recorder attachment.

   One registry instance rides on each simulated machine; every layer of
   the stack (SGX transitions, EPC paging, protected-FS cache, WASI
   dispatch, the database pager, the Wasm engine) records into it so a
   single run can answer "what did this cost and why". Virtual time is
   the machine ledger's; extents (ECALL/OCALL spans) are Begin/End
   events in the attached recorder. *)

(* Counters are cells, resolved by name into handles. [reset] zeroes
   them in place, so handles stay valid; the snapshot lists the cells
   touched since ([c_live]). *)
type counter = { mutable c_value : int; mutable c_live : bool }

type t = {
  counters : (string, counter) Hashtbl.t;
  mutable tracer : Trace.t option;
}

let create () = { counters = Hashtbl.create 32; tracer = None }

let reset t = Hashtbl.iter (fun _ c -> c.c_value <- 0; c.c_live <- false) t.counters

(* --- flight recorder attachment --- *)

let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

let emit t ~cat ?args name =
  match t.tracer with Some tr -> Trace.instant tr ~cat ?args name | None -> ()

let emit_counter t ~cat name args =
  match t.tracer with Some tr -> Trace.counter tr ~cat name args | None -> ()

(* --- counters --- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_value = 0; c_live = false } in
      Hashtbl.add t.counters name c;
      c

let add c n = c.c_value <- c.c_value + n; c.c_live <- true

let inc c = add c 1

let value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c_value | None -> 0

(* --- snapshot (sorted by name, for stable reports and tests) --- *)

let counters t =
  Hashtbl.fold (fun k c acc -> if c.c_live then (k, c.c_value) :: acc else acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
