(* Planner layer: ON- and WHERE-clause analysis into an access path per
   FROM source (rowid range, single-column index equality/range, a rowid
   or index probe for an inner table of a join, or full scan), the
   plan-choice trace event, and row estimates from the ANALYZE
   statistics cache ([Catalog.stats]). It reads the statement [Resolve]
   has bound: a column's source is its slot's.

   Constant folding and probe keys are evaluated by the executor, through
   the [const] and [eval] callbacks, so this layer stays free of
   expression evaluation. *)

open Sql_ast

type plan =
  | Full_scan
  | Rowid_range of int64 option * int64 option  (* inclusive bounds *)
  | Index_range of Catalog.index_info * Value.t list * Value.t option * Value.t option
      (* equality prefix, then optional lo/hi bound on the next column *)
  | Rowid_probe of expr  (* rowid = a key over the outer tables *)
  | Index_probe of Catalog.index_info * expr  (* first index column = such a key *)

(* Why the access path was (or was not) chosen — carried into the
   [sqldb.plan] trace event so silent plan flips show up in Perfetto
   and in counter diffs. *)
type reason =
  | No_where  (* nothing to constrain the scan with *)
  | Rowid_bounds  (* rowid / INTEGER PRIMARY KEY constraints found *)
  | Index_eq  (* single-column index equality *)
  | Index_bounds  (* index range (BETWEEN / >=) *)
  | No_usable_path  (* WHERE present but nothing indexable: fallback *)
  | Join_inner  (* inner table of a join with no usable equality: scanned *)
  | Join_probe  (* inner table probed once per outer row *)

let reason_label = function
  | No_where -> "no_where"
  | Rowid_bounds -> "rowid_bounds"
  | Index_eq -> "index_eq"
  | Index_bounds -> "index_bounds"
  | No_usable_path -> "no_usable_path"
  | Join_inner -> "join_inner"
  | Join_probe -> "join_probe"

let reason_code = function
  | No_where -> 0
  | Rowid_bounds -> 1
  | Index_eq -> 2
  | Index_bounds -> 3
  | No_usable_path -> 4
  | Join_inner -> 5
  | Join_probe -> 6

let path_label = function
  | Full_scan -> "full_scan"
  | Rowid_range _ | Rowid_probe _ -> "rowid_range"
  | Index_range _ | Index_probe _ -> "index_range"

let path_code = function
  | Full_scan -> 0
  | Rowid_range _ | Rowid_probe _ -> 1
  | Index_range _ | Index_probe _ -> 2

(* Emit the plan decision: a counter per (path) plus an instant event
   carrying the coded path/reason, so a query whose access path degrades
   (e.g. an index pick falling back to a full scan) is visible in the
   flight recorder and in counter-level diffs. *)
let record_plan t (ti : Catalog.table_info) plan reason =
  match t.Catalog.obs with
  | None -> ()
  | Some o ->
      let count name = Twine_obs.Obs.inc (Twine_obs.Obs.counter o name) in
      count ("sqldb.plan." ^ path_label plan);
      if reason = No_usable_path then count "sqldb.plan.fallback";
      if Option.is_some (Twine_obs.Obs.tracer o) then
        Twine_obs.Obs.emit o ~cat:"sqldb"
          ~args:
            [ ("path", path_code plan); ("reason", reason_code reason);
              ("table_root", ti.Catalog.tbl_root) ]
          "sqldb.plan"

let find_index t table_name col =
  Hashtbl.fold
    (fun _ (ii : Catalog.index_info) acc ->
      match (acc, ii.idx_columns) with
      | None, c :: _ when Catalog.name_eq ii.idx_table table_name && Catalog.name_eq c col
        -> Some ii
      | _ -> acc)
    t.Catalog.indexes None

(* --- expressions --- *)

(* Compact expression rendering for operator details. *)
let rec render_expr = function
  | Lit (Value.Text s) -> "'" ^ s ^ "'"
  | Lit v -> Value.to_string v
  | Param _ -> "?"
  | Column (None, n) -> n
  | Column (Some q, n) -> q ^ "." ^ n
  | Star -> "*"
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (render_expr a) (binop_text op) (render_expr b)
  | Not a -> Printf.sprintf "(NOT %s)" (render_expr a)
  | Neg a -> Printf.sprintf "(-%s)" (render_expr a)
  | Is_null (a, pos) ->
      Printf.sprintf "(%s IS %sNULL)" (render_expr a) (if pos then "" else "NOT ")
  | Between (a, lo, hi) ->
      Printf.sprintf "(%s BETWEEN %s AND %s)" (render_expr a) (render_expr lo)
        (render_expr hi)
  | In_list (a, es) ->
      Printf.sprintf "(%s IN (%s))" (render_expr a)
        (String.concat ", " (List.map render_expr es))
  | Like (a, p) -> Printf.sprintf "(%s LIKE %s)" (render_expr a) (render_expr p)
  | Call (n, args) ->
      Printf.sprintf "%s(%s)" n (String.concat ", " (List.map render_expr args))
  | Case _ -> "CASE"
  | Cast (a, ty) -> Printf.sprintf "CAST(%s AS %s)" (render_expr a) ty
  | Bound (_, e) -> render_expr e

(* --- constant folding --- *)

(* Every column [e] reads is of a source that passes [ok]. *)
let reads ok = function Bound ((Field (j, _) | Rowid j), _) -> ok j | _ -> true

let foldable ok =
  for_all_sub (function
    | Star | Call (("random" | "randomblob"), _) -> false
    | e -> reads ok e)

(* Inclusive rowid bounds holding every integer x with [x op v] under
   [Value.compare]. Only an Int, or a Real below 2^53 in magnitude, gives
   a bound; a Real rounds outward so the range stays a superset. Any
   other value leaves both sides open and the filter decides. *)
let rowid_bounds op v =
  let exact =
    match v with
    | Value.Int i -> Some (i, i)
    | Value.Real f when Float.abs f < 0x1p53 ->
        Some (Int64.of_float (Float.ceil f), Int64.of_float (Float.floor f))
    | _ -> None
  in
  match (exact, op) with
  | Some (up, down), Eq -> (Some up, Some down)
  | Some (up, _), Ge -> (Some up, None)
  | Some (_, down), Gt -> (Some (Int64.add down 1L), None)
  | Some (_, down), Le -> (None, Some down)
  | Some (up, _), Lt -> (None, Some (Int64.sub up 1L))
  | _ -> (None, None)

(* --- access paths --- *)

(* The driving table: a rowid range or a single-column index equality or
   range. Every column of [cs] reads this table; [const] folds the other
   side of each comparison. *)
let driving_plan t (ti : Catalog.table_info) ~const cs =
  let lo = ref None and hi = ref None in
  let tighten_lo v = match !lo with Some x when Int64.compare x v >= 0 -> () | _ -> lo := Some v in
  let tighten_hi v = match !hi with Some x when Int64.compare x v <= 0 -> () | _ -> hi := Some v in
  let bound op e =
    match const e with
    | Some v ->
        let l, h = rowid_bounds op v in
        Option.iter tighten_lo l;
        Option.iter tighten_hi h
    | None -> ()
  in
  List.iter
    (fun c ->
      match c with
      | Binop ((Eq | Ge | Gt | Le | Lt) as op, Bound (_, Column (_, n)), e)
        when Catalog.is_rowid_column ti n -> bound op e
      | Binop (Eq, e, Bound (_, Column (_, n))) when Catalog.is_rowid_column ti n -> bound Eq e
      | Between (Bound (_, Column (_, n)), a, b) when Catalog.is_rowid_column ti n ->
          bound Ge a;
          bound Le b
      | _ -> ())
    cs;
  if !lo <> None || !hi <> None then (Rowid_range (!lo, !hi), Rowid_bounds)
  else begin
    (* single-column index equality or range *)
    let pick =
      List.find_map
        (fun c ->
          match c with
          | Binop (Eq, Bound (_, Column (_, n)), e)
          | Binop (Eq, e, Bound (_, Column (_, n))) -> (
              match (find_index t ti.Catalog.tbl_name n, const e) with
              | Some ii, Some v -> Some (Index_range (ii, [ v ], None, None), Index_eq)
              | _ -> None)
          | Between (Bound (_, Column (_, n)), a, b) -> (
              match (find_index t ti.Catalog.tbl_name n, const a, const b) with
              | Some ii, Some lo, Some hi ->
                  Some (Index_range (ii, [], Some lo, Some hi), Index_bounds)
              | _ -> None)
          | Binop (Ge, Bound (_, Column (_, n)), e) -> (
              match (find_index t ti.Catalog.tbl_name n, const e) with
              | Some ii, Some v -> Some (Index_range (ii, [], Some v, None), Index_bounds)
              | _ -> None)
          | _ -> None)
        cs
    in
    match pick with
    | Some (p, r) -> (p, r)
    | None -> (Full_scan, if cs = [] then No_where else No_usable_path)
  end

(* An inner table: probed by its rowid, else by the first column of an
   index, when a conjunct sets that column equal to a key that reads only
   the sources to its left (and no impure function), so the key can be
   evaluated once per outer row. *)
let probe_plan t (ti : Catalog.table_info) i ~is_key cs =
  let eq a b =
    match a with
    | Bound ((Field (j, _) | Rowid j), Column (_, n)) when j = i && is_key b -> Some (n, b)
    | _ -> None
  in
  let eqs =
    List.filter_map
      (function
        | Binop (Eq, a, b) -> ( match eq a b with Some k -> Some k | None -> eq b a)
        | _ -> None)
      cs
  in
  match List.find_opt (fun (n, _) -> Catalog.is_rowid_column ti n) eqs with
  | Some (_, key) -> (Rowid_probe key, Join_probe)
  | None -> (
      match
        List.find_map
          (fun (n, key) ->
            Option.map
              (fun ii -> Index_probe (ii, key))
              (find_index t ti.Catalog.tbl_name n))
          eqs
      with
      | Some p -> (p, Join_probe)
      | None -> (Full_scan, Join_inner))

let plan_for t ti i ~const clauses =
  let cs =
    let rec conjuncts = function
      | Binop (And, a, b) -> conjuncts a @ conjuncts b
      | e -> [ e ]
    in
    List.concat_map conjuncts clauses
  in
  if i = 0 then
    driving_plan t ti ~const (List.filter (for_all_sub (reads (fun j -> j = 0))) cs)
  else probe_plan t ti i ~is_key:(foldable (fun j -> j < i)) cs

let bind_probe plan ~eval =
  match plan with
  | Rowid_probe key -> (
      match eval key with
      | (Value.Int _ | Value.Real _) as v -> (
          (* a non-integral Real gives lo > hi: no row *)
          match rowid_bounds Eq v with
          | Some lo, Some hi when Int64.compare lo hi > 0 -> None
          | lo, hi -> Some (Rowid_range (lo, hi)))
      | _ -> None (* rowids are integers: NULL, text and blobs equal none *))
  | Index_probe (ii, key) -> (
      match eval key with
      | Value.Null -> None
      | v -> Some (Index_range (ii, [ v ], None, None)))
  | p -> Some p

(* --- row estimates from the statistics cache --- *)

(* Buckets intersecting [lo, hi] contribute their full count: a small,
   deterministic overestimate at the range edges (at most one bucket's
   depth per side), which is all EXPLAIN needs. *)
let hist_range_count (cs : Catalog.col_stats) lo hi =
  Array.fold_left
    (fun acc (blo, bhi, cnt) ->
      let below = match hi with Some h -> Value.compare blo h > 0 | None -> false in
      let above = match lo with Some l -> Value.compare bhi l < 0 | None -> false in
      if below || above then acc else acc + cnt)
    0 cs.Catalog.cs_hist

let eq_estimate (ts : Catalog.tbl_stats) (cs : Catalog.col_stats) =
  let non_null = max 0 (ts.Catalog.ts_rows - cs.Catalog.cs_nulls) in
  if cs.Catalog.cs_distinct <= 0 then non_null
  else (non_null + cs.Catalog.cs_distinct - 1) / cs.Catalog.cs_distinct

(* Estimated rows produced by an access path, [None] when the table has
   never been ANALYZEd. *)
let estimate t (ti : Catalog.table_info) plan =
  match Catalog.stats_for t ti.Catalog.tbl_name with
  | None -> None
  | Some ts -> (
      match plan with
      | Full_scan -> Some ts.Catalog.ts_rows
      | Rowid_range (lo, hi) -> (
          match (lo, hi) with
          | Some l, Some h when Int64.compare l h = 0 -> Some (min 1 ts.Catalog.ts_rows)
          | _ -> (
              let by_hist =
                match ti.Catalog.tbl_rowid_col with
                | None -> None
                | Some pk -> (
                    match Catalog.col_stats_for t ti.Catalog.tbl_name pk with
                    | Some cs when Array.length cs.Catalog.cs_hist > 0 ->
                        Some
                          (hist_range_count cs
                             (Option.map (fun v -> Value.Int v) lo)
                             (Option.map (fun v -> Value.Int v) hi))
                    | _ -> None)
              in
              match by_hist with
              | Some n -> Some n
              | None -> Some ts.Catalog.ts_rows))
      | Index_range (ii, prefix, lo, hi) -> (
          let col = List.hd ii.Catalog.idx_columns in
          match Catalog.col_stats_for t ti.Catalog.tbl_name col with
          | None -> Some ts.Catalog.ts_rows
          | Some cs ->
              if prefix <> [] then Some (eq_estimate ts cs)
              else if Array.length cs.Catalog.cs_hist > 0 then
                Some (hist_range_count cs lo hi)
              else Some ts.Catalog.ts_rows)
      (* per loop: one key value *)
      | Rowid_probe _ -> Some (min 1 ts.Catalog.ts_rows)
      | Index_probe (ii, _) -> (
          let col = List.hd ii.Catalog.idx_columns in
          match Catalog.col_stats_for t ti.Catalog.tbl_name col with
          | None -> Some ts.Catalog.ts_rows
          | Some cs -> Some (eq_estimate ts cs)))

(* Human-readable access-path description for EXPLAIN output. *)
let describe plan =
  let bound = function Some v -> Value.to_string v | None -> "" in
  match plan with
  | Full_scan -> "full scan"
  | Rowid_range (lo, hi) ->
      Printf.sprintf "rowid [%s..%s]"
        (match lo with Some v -> Int64.to_string v | None -> "")
        (match hi with Some v -> Int64.to_string v | None -> "")
  | Index_range (ii, prefix, lo, hi) ->
      if prefix <> [] then
        Printf.sprintf "index %s (%s=%s)" ii.Catalog.idx_name
          (List.hd ii.Catalog.idx_columns)
          (String.concat "," (List.map Value.to_string prefix))
      else
        Printf.sprintf "index %s (%s in [%s..%s])" ii.Catalog.idx_name
          (List.hd ii.Catalog.idx_columns) (bound lo) (bound hi)
  | Rowid_probe key -> "rowid = " ^ render_expr key
  | Index_probe (ii, key) ->
      Printf.sprintf "index %s (%s=%s)" ii.Catalog.idx_name
        (List.hd ii.Catalog.idx_columns) (render_expr key)
