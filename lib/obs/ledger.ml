(* Cycle ledger (see the .mli for the conservation argument). Accounts
   are a flat hashtable keyed by the dotted path; the hierarchy only
   materialises at render time, so booking stays O(1) per charge. An
   account cell is resolved into a handle once; [reset] zeroes cells in
   place, and a cell with events is one booked since. Each cell keeps
   the distribution of its bookings (one sample each, so its count and
   sum are the events and ns) and its trace track name. *)

type account = {
  a_name : string;
  a_track : string;
  mutable a_ns : int;
  mutable a_events : int;
  mutable a_dist : Sketch.t;
}

type t = {
  now : unit -> int;
  tbl : (string, account) Hashtbl.t;
  mutable booked : int;
  mutable start_ns : int;
  mutable ctx : string option;
  mutable tap : (string -> int -> unit) option;
  matrix_tbl : (string, (string, int) Hashtbl.t) Hashtbl.t;
}

let create ?(now = fun () -> 0) () =
  {
    now;
    tbl = Hashtbl.create 32;
    booked = 0;
    start_ns = now ();
    ctx = None;
    tap = None;
    matrix_tbl = Hashtbl.create 8;
  }

let account t name =
  match Hashtbl.find_opt t.tbl name with
  | Some a -> a
  | None ->
      let a =
        { a_name = name; a_track = "ledger." ^ name; a_ns = 0; a_events = 0;
          a_dist = Sketch.create () }
      in
      Hashtbl.add t.tbl name a;
      a

let balance a = a.a_ns
let track a = a.a_track

let book t a ns =
  if ns < 0 then invalid_arg "Ledger.book: negative nanoseconds";
  a.a_ns <- a.a_ns + ns;
  a.a_events <- a.a_events + 1;
  Sketch.insert a.a_dist ns;
  t.booked <- t.booked + ns;
  (match t.tap with None -> () | Some f -> f a.a_name ns);
  match t.ctx with
  | None -> ()
  | Some ctx ->
      let row =
        match Hashtbl.find_opt t.matrix_tbl ctx with
        | Some r -> r
        | None ->
            let r = Hashtbl.create 8 in
            Hashtbl.add t.matrix_tbl ctx r;
            r
      in
      Hashtbl.replace row a.a_name
        (ns + Option.value ~default:0 (Hashtbl.find_opt row a.a_name))

let set_context t c = t.ctx <- c
let context t = t.ctx
let set_tap t f = t.tap <- f
let tap t = t.tap

type entry = { ns : int; events : int }

let ns t name =
  match Hashtbl.find_opt t.tbl name with Some a -> a.a_ns | None -> 0

let events t name =
  match Hashtbl.find_opt t.tbl name with Some a -> a.a_events | None -> 0

let distribution t name =
  match Hashtbl.find_opt t.tbl name with
  | Some a when a.a_events > 0 -> Some a.a_dist
  | _ -> None

let total t = t.booked

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let accounts t =
  let entry k a acc =
    if a.a_events = 0 then acc else (k, { ns = a.a_ns; events = a.a_events }) :: acc
  in
  by_name (Hashtbl.fold entry t.tbl [])

let elapsed t = t.now () - t.start_ns

let audit t =
  { Audit.law = "ledger"; unit = "ns"; total = ("elapsed", elapsed t);
    parts = [ ("booked", t.booked) ] }

let balanced t = Audit.ok (audit t)

let reset t =
  Hashtbl.iter
    (fun _ a -> a.a_ns <- 0; a.a_events <- 0; a.a_dist <- Sketch.create ())
    t.tbl;
  Hashtbl.reset t.matrix_tbl;
  t.booked <- 0;
  t.ctx <- None;
  t.tap <- None;
  t.start_ns <- t.now ()

(* --- snapshots --- *)

type snapshot = {
  elapsed_ns : int;
  booked_ns : int;
  accounts : (string * entry) list;
  matrix : (string * (string * int) list) list;
}

let snapshot t =
  let row fn cells acc = (fn, by_name (Hashtbl.fold (fun k v l -> (k, v) :: l) cells [])) :: acc in
  { elapsed_ns = elapsed t; booked_ns = t.booked; accounts = accounts t;
    matrix = by_name (Hashtbl.fold row t.matrix_tbl []) }

let schema = "twine-ledger/v1"

let to_json (s : snapshot) =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("elapsed_ns", Json.Num (float_of_int s.elapsed_ns));
      ("booked_ns", Json.Num (float_of_int s.booked_ns));
      ( "accounts",
        Json.Obj
          (List.map
             (fun (name, e) ->
               ( name,
                 Json.Obj
                   [ ("ns", Json.Num (float_of_int e.ns));
                     ("events", Json.Num (float_of_int e.events)) ] ))
             s.accounts) );
      ( "matrix",
        Json.Obj
          (List.map
             (fun (fn, cells) ->
               ( fn,
                 Json.Obj
                   (List.map
                      (fun (name, ns) -> (name, Json.Num (float_of_int ns)))
                      cells) ))
             s.matrix) ) ]

let to_string s = Json.to_string (to_json s)

let of_json j =
  let ( let* ) = Result.bind in
  let int v = Option.map int_of_float (Json.to_float v) in
  let num name v = Option.bind (Json.member name v) int in
  let fields = function Some (Json.Obj l) -> Some l | _ -> None in
  let number name =
    Option.to_result ~none:(Printf.sprintf "missing number %S" name) (num name j)
  in
  match Json.member "schema" j with
  | Some (Json.Str s) when s = schema ->
      let* elapsed_ns = number "elapsed_ns" in
      let* booked_ns = number "booked_ns" in
      let* accounts =
        Option.to_result ~none:"missing accounts object" (fields (Json.member "accounts" j))
      in
      let entry (name, v) =
        match (num "ns" v, num "events" v) with
        | Some ns, Some events -> Some (name, { ns; events })
        | _ -> None
      in
      let cells (fn, row) =
        let row = Option.value ~default:[] (fields (Some row)) in
        (fn, List.filter_map (fun (name, v) -> Option.map (fun ns -> (name, ns)) (int v)) row)
      in
      let matrix = Option.value ~default:[] (fields (Json.member "matrix" j)) in
      Ok { elapsed_ns; booked_ns; accounts = List.filter_map entry accounts;
           matrix = List.map cells matrix }
  | Some (Json.Str s) -> Error (Printf.sprintf "unknown schema %S" s)
  | _ -> Error "missing schema field"

let of_string s = Result.bind (Json.parse s) of_json

(* --- rendering --- *)

let ms ns = float_of_int ns /. 1e6
let line b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt

(* The account hierarchy, materialised from the dotted paths: children
   sorted by subtree cost; levels with a single child and no booking of
   their own are collapsed into the child. *)
type rnode = {
  rpath : string;
  mutable rns : int;
  mutable revents : int;
  mutable rleaf : bool;
  mutable rkids : rnode list;
}

let build_tree accounts =
  let root = { rpath = ""; rns = 0; revents = 0; rleaf = false; rkids = [] } in
  let kid node path =
    match List.find_opt (fun k -> k.rpath = path) node.rkids with
    | Some k -> k
    | None ->
        let k = { rpath = path; rns = 0; revents = 0; rleaf = false; rkids = [] } in
        node.rkids <- k :: node.rkids;
        k
  in
  List.iter
    (fun (name, (e : entry)) ->
      let rec go node prefix = function
        | [] ->
            node.rleaf <- true;
            node.rns <- node.rns + e.ns;
            node.revents <- node.revents + e.events
        | seg :: rest ->
            let path = if prefix = "" then seg else prefix ^ "." ^ seg in
            go (kid node path) path rest
      in
      go root "" (String.split_on_char '.' name))
    accounts;
  let rec sum node =
    List.iter sum node.rkids;
    node.rns <- node.rns + List.fold_left (fun a k -> a + k.rns) 0 node.rkids;
    node.revents <- node.revents + List.fold_left (fun a k -> a + k.revents) 0 node.rkids;
    node.rkids <-
      List.sort
        (fun a b ->
          match compare b.rns a.rns with
          | 0 -> String.compare a.rpath b.rpath
          | c -> c)
        node.rkids
  in
  sum root;
  root

let render_accounts b accounts ~booked =
  let line fmt = line b fmt in
  line "%-42s %12s %7s %8s" "account" "total(ms)" "share" "events";
  let pct ns = 100. *. float_of_int ns /. float_of_int (max 1 booked) in
  let root = build_tree accounts in
  let rec pr depth node =
    match (node.rkids, node.rleaf) with
    | [ only ], false -> pr depth only
    | kids, _ ->
        line "%-42s %12.4f %6.1f%% %8s"
          (String.make (2 * depth) ' ' ^ node.rpath)
          (ms node.rns) (pct node.rns)
          (if node.rleaf then string_of_int node.revents else "");
        List.iter (pr (depth + 1)) kids
  in
  List.iter (pr 0) root.rkids

let render ?(title = "cycle ledger") t =
  let b = Buffer.create 1024 in
  Buffer.add_string b ("-- " ^ title ^ " --\n");
  render_accounts b (accounts t) ~booked:t.booked;
  Buffer.add_string b (Audit.render (audit t));
  Buffer.add_char b '\n';
  Buffer.contents b

let render_matrix ?(top = 6) (s : snapshot) =
  if s.matrix = [] then ""
  else begin
    let b = Buffer.create 1024 in
    let line fmt = line b fmt in
    line "-- guest-frame x account breakdown --";
    line "%-24s %-30s %12s %7s" "function" "account" "total(ms)" "share";
    let rows =
      List.map
        (fun (fn, cells) ->
          (fn, cells, List.fold_left (fun a (_, ns) -> a + ns) 0 cells))
        s.matrix
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    in
    let shown = List.filteri (fun i _ -> i < top) rows in
    List.iter
      (fun (fn, cells, row_total) ->
        let cells = List.sort (fun (_, a) (_, b) -> compare b a) cells in
        List.iteri
          (fun i (name, ns) ->
            line "%-24s %-30s %12.4f %6.1f%%"
              (if i = 0 then fn else "")
              name (ms ns)
              (100. *. float_of_int ns /. float_of_int (max 1 row_total)))
          cells)
      shown;
    let rest = List.length rows - List.length shown in
    if rest > 0 then line "  ... and %d more function(s)" rest;
    Buffer.contents b
  end

(* --- differential attribution --- *)

type delta = { account : string; base_ns : int; cur_ns : int; delta_ns : int }

let diff (a : snapshot) (b : snapshot) =
  let find (s : snapshot) name =
    match List.assoc_opt name s.accounts with Some e -> e.ns | None -> 0
  in
  let names =
    List.sort_uniq String.compare
      (List.map fst a.accounts @ List.map fst b.accounts)
  in
  List.filter_map
    (fun name ->
      let base_ns = find a name and cur_ns = find b name in
      if base_ns = 0 && cur_ns = 0 then None
      else Some { account = name; base_ns; cur_ns; delta_ns = cur_ns - base_ns })
    names
  |> List.sort (fun x y ->
         match compare (abs y.delta_ns) (abs x.delta_ns) with
         | 0 -> String.compare x.account y.account
         | c -> c)

let render_diff ?(top = 24) ~(base : snapshot) ~(current : snapshot) () =
  let b = Buffer.create 1024 in
  let line fmt = line b fmt in
  let deltas = diff base current in
  let elapsed_delta = current.elapsed_ns - base.elapsed_ns in
  line "== ledger diff: ranked attribution of the run delta ==";
  line "elapsed: %.4f -> %.4f ms (%+.4f ms, %+.1f%%)" (ms base.elapsed_ns)
    (ms current.elapsed_ns) (ms elapsed_delta)
    (100. *. float_of_int elapsed_delta
    /. Float.max 1.0 (Float.abs (float_of_int base.elapsed_ns)));
  (* share denominator: the elapsed change when there is one, else the
     total account movement (a pure reshuffle at equal run time) *)
  let denom =
    if elapsed_delta <> 0 then abs elapsed_delta
    else max 1 (List.fold_left (fun a d -> a + abs d.delta_ns) 0 deltas)
  in
  line "%-34s %13s %13s %14s %7s" "account" "base(ms)" "current(ms)" "delta(ms)"
    "share";
  let shown = List.filteri (fun i _ -> i < top) deltas in
  List.iter
    (fun d ->
      line "%-34s %13.4f %13.4f %+14.4f %6.1f%%" d.account (ms d.base_ns)
        (ms d.cur_ns) (ms d.delta_ns)
        (100. *. float_of_int (abs d.delta_ns) /. float_of_int denom))
    shown;
  let rest = List.length deltas - List.length shown in
  if rest > 0 then line "  ... and %d more account(s)" rest;
  (* per-function attribution of the top account movements *)
  let cell (s : snapshot) fn name =
    match List.assoc_opt fn s.matrix with
    | Some row -> Option.value ~default:0 (List.assoc_opt name row)
    | None -> 0
  in
  let fns =
    List.sort_uniq String.compare
      (List.map fst base.matrix @ List.map fst current.matrix)
  in
  if fns <> [] then begin
    let hot = List.filteri (fun i _ -> i < 3) deltas in
    List.iter
      (fun d ->
        let per_fn =
          List.filter_map
            (fun fn ->
              let bns = cell base fn d.account and cns = cell current fn d.account in
              if bns = 0 && cns = 0 then None else Some (fn, cns - bns, bns, cns))
            fns
          |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare (abs b) (abs a))
        in
        if per_fn <> [] then begin
          line "hot functions in %s:" d.account;
          List.iteri
            (fun i (fn, dns, bns, cns) ->
              if i < 5 then
                line "  %-24s %+12.4f ms  (%.4f -> %.4f)" fn (ms dns) (ms bns)
                  (ms cns))
            per_fn
        end)
      hot
  end;
  Buffer.contents b
