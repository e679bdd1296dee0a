(* Calling-context profiler over a shadow call stack (see the .mli for
   the attribution rule). Self figures use segment accounting: the
   running totals [seg_fuel]/[seg_cycles] mark where the current frame's
   open segment began; every enter/exit closes the segment into the
   frame on top and starts a new one. This costs O(1) per call event and
   never double-counts, whatever the interleaving of calls, returns and
   unwinding traps. *)

type node = {
  id : int;  (* function index; -1 for the root *)
  mutable calls : int;
  mutable self_fuel : int;
  mutable self_cycles : int;
  mutable children : node list;  (* most recently created first *)
}

type t = {
  root : node;
  mutable stack : node list;  (* current path, innermost first *)
  mutable seg_fuel : int;
  mutable seg_cycles : int;
  mutable namer : int -> string;
  now : unit -> int;
  tracer : Trace.t option;
  mutable ledger : Ledger.t option;
}

let fresh_node id = { id; calls = 0; self_fuel = 0; self_cycles = 0; children = [] }

let default_namer id = Printf.sprintf "func[%d]" id

let create ?tracer ?(now = fun () -> 0) () =
  {
    root = fresh_node (-1);
    stack = [];
    seg_fuel = 0;
    seg_cycles = 0;
    namer = default_namer;
    now;
    tracer;
    ledger = None;
  }

let set_namer t namer = t.namer <- namer
let name t id = t.namer id
let depth t = List.length t.stack

let connect_ledger t ledger = t.ledger <- Some ledger

(* Mirror the shadow-stack top into the ledger's context, so every
   charge the machine books while a guest frame is live lands in that
   frame's row of the function x account matrix. *)
let sync_context t =
  match t.ledger with
  | None -> ()
  | Some l ->
      Ledger.set_context l
        (match t.stack with cur :: _ -> Some (t.namer cur.id) | [] -> None)

(* Close the open self segment into the frame on top (dropped at top
   level: fuel only accrues inside some function body anyway) and mark
   the start of the next one. *)
let close_segment t ~fuel ~cycles =
  (match t.stack with
  | cur :: _ ->
      cur.self_fuel <- cur.self_fuel + (fuel - t.seg_fuel);
      cur.self_cycles <- cur.self_cycles + (cycles - t.seg_cycles)
  | [] -> ());
  t.seg_fuel <- fuel;
  t.seg_cycles <- cycles

let find_or_add parent id =
  match List.find_opt (fun n -> n.id = id) parent.children with
  | Some n -> n
  | None ->
      let n = fresh_node id in
      parent.children <- n :: parent.children;
      n

let enter t ~fuel id =
  close_segment t ~fuel ~cycles:(t.now ());
  let parent = match t.stack with cur :: _ -> cur | [] -> t.root in
  let node = find_or_add parent id in
  node.calls <- node.calls + 1;
  t.stack <- node :: t.stack;
  sync_context t;
  match t.tracer with
  | Some tr -> Trace.begin_span tr ~cat:"wasm" (t.namer id)
  | None -> ()

let exit t ~fuel id =
  match t.stack with
  | cur :: rest when cur.id = id ->
      close_segment t ~fuel ~cycles:(t.now ());
      t.stack <- rest;
      sync_context t;
      (match t.tracer with
      | Some tr -> Trace.end_span tr ~cat:"wasm" (t.namer id)
      | None -> ())
  | _ -> ()  (* unbalanced exit: ignore rather than corrupt the tree *)

(* --- aggregation --- *)

type fn = {
  fn_id : int;
  fn_name : string;
  calls : int;
  self_fuel : int;
  total_fuel : int;
  self_cycles : int;
  total_cycles : int;
}

module Iset = Set.Make (Int)

type acc = {
  mutable a_calls : int;
  mutable a_self_fuel : int;
  mutable a_total_fuel : int;
  mutable a_self_cycles : int;
  mutable a_total_cycles : int;
}

let functions t =
  let tbl = Hashtbl.create 16 in
  let get id =
    match Hashtbl.find_opt tbl id with
    | Some a -> a
    | None ->
        let a =
          { a_calls = 0; a_self_fuel = 0; a_total_fuel = 0;
            a_self_cycles = 0; a_total_cycles = 0 }
        in
        Hashtbl.add tbl id a;
        a
  in
  (* Returns the subtree's (fuel, cycles); a node adds its subtree to
     the per-function total only when no ancestor has the same id, so
     recursion is counted once per outermost activation. *)
  let rec walk ancestors (node : node) =
    let f = ref node.self_fuel and c = ref node.self_cycles in
    let ancestors' = Iset.add node.id ancestors in
    List.iter
      (fun child ->
        let cf, cc = walk ancestors' child in
        f := !f + cf;
        c := !c + cc)
      node.children;
    let a = get node.id in
    a.a_calls <- a.a_calls + node.calls;
    a.a_self_fuel <- a.a_self_fuel + node.self_fuel;
    a.a_self_cycles <- a.a_self_cycles + node.self_cycles;
    if not (Iset.mem node.id ancestors) then begin
      a.a_total_fuel <- a.a_total_fuel + !f;
      a.a_total_cycles <- a.a_total_cycles + !c
    end;
    (!f, !c)
  in
  List.iter (fun child -> ignore (walk Iset.empty child)) t.root.children;
  let fns =
    Hashtbl.fold
      (fun id a acc ->
        {
          fn_id = id;
          fn_name = t.namer id;
          calls = a.a_calls;
          self_fuel = a.a_self_fuel;
          total_fuel = a.a_total_fuel;
          self_cycles = a.a_self_cycles;
          total_cycles = a.a_total_cycles;
        }
        :: acc)
      tbl []
  in
  List.sort
    (fun x y ->
      match compare y.self_fuel x.self_fuel with
      | 0 -> compare x.fn_id y.fn_id
      | c -> c)
    fns

let iter t f =
  let rec go path (node : node) =
    let path = path @ [ node.id ] in
    f ~stack:path ~calls:node.calls ~self_fuel:node.self_fuel
      ~self_cycles:node.self_cycles;
    List.iter (go path) (List.rev node.children)
  in
  List.iter (go []) (List.rev t.root.children)

(* Two engines' profiles of one run agree when every function's flat
   record is identical; the residue counts the functions that differ. *)
let parity a b =
  let fa = functions a and fb = functions b in
  let ids = List.sort_uniq compare (List.map (fun f -> f.fn_id) (fa @ fb)) in
  let find id l = List.find_opt (fun f -> f.fn_id = id) l in
  let same = List.filter (fun id -> find id fa = find id fb) ids in
  {
    Audit.law = "engine parity";
    unit = "";
    total = ("functions", List.length ids);
    parts = [ ("identical", List.length same) ];
  }

let total_fuel t =
  let sum = ref 0 in
  iter t (fun ~stack:_ ~calls:_ ~self_fuel ~self_cycles:_ -> sum := !sum + self_fuel);
  !sum

let edges t =
  let tbl = Hashtbl.create 16 in
  let rec go parent (node : node) =
    let key = (parent, node.id) in
    Hashtbl.replace tbl key
      (node.calls + Option.value ~default:0 (Hashtbl.find_opt tbl key));
    List.iter (go node.id) node.children
  in
  List.iter (go (-1)) t.root.children;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
