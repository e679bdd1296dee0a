(* Planner layer: WHERE-clause analysis into an access path (rowid
   range, single-column index equality/range, or full scan), the
   plan-choice trace event, and row estimates from the ANALYZE
   statistics cache ([Catalog.stats]).

   Constant folding is delegated to the executor through the [const]
   callback so this layer stays free of expression evaluation. *)

open Sql_ast

type plan =
  | Full_scan
  | Rowid_range of int64 option * int64 option  (* inclusive bounds *)
  | Index_range of Catalog.index_info * Value.t list * Value.t option * Value.t option
      (* equality prefix, then optional lo/hi bound on the next column *)

(* Why the access path was (or was not) chosen — carried into the
   [sqldb.plan] trace event so silent plan flips show up in Perfetto
   and in counter diffs. *)
type reason =
  | No_where  (* nothing to constrain the scan with *)
  | Rowid_bounds  (* rowid / INTEGER PRIMARY KEY constraints found *)
  | Index_eq  (* single-column index equality *)
  | Index_bounds  (* index range (BETWEEN / >=) *)
  | No_usable_path  (* WHERE present but nothing indexable: fallback *)
  | Join_inner  (* non-driving table of a join: always scanned *)

let reason_label = function
  | No_where -> "no_where"
  | Rowid_bounds -> "rowid_bounds"
  | Index_eq -> "index_eq"
  | Index_bounds -> "index_bounds"
  | No_usable_path -> "no_usable_path"
  | Join_inner -> "join_inner"

let reason_code = function
  | No_where -> 0
  | Rowid_bounds -> 1
  | Index_eq -> 2
  | Index_bounds -> 3
  | No_usable_path -> 4
  | Join_inner -> 5

let path_label = function
  | Full_scan -> "full_scan"
  | Rowid_range _ -> "rowid_range"
  | Index_range _ -> "index_range"

let path_code = function
  | Full_scan -> 0
  | Rowid_range _ -> 1
  | Index_range _ -> 2

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
  let col = String.lowercase_ascii col in
  Hashtbl.fold
    (fun _ (ii : Catalog.index_info) acc ->
      if acc = None
         && String.lowercase_ascii ii.idx_table = String.lowercase_ascii table_name
         && List.length ii.idx_columns >= 1
         && String.lowercase_ascii (List.hd ii.idx_columns) = col
      then Some ii
      else acc)
    t.Catalog.indexes None

(* Analyse a WHERE clause into a plan for one table. Only top-level AND
   conjuncts are considered. [const] evaluates column-free expressions
   (None when impure or column-dependent). *)
let plan_for t (ti : Catalog.table_info) ~const where =
  let rec conjuncts = function
    | Some (Binop (And, a, b)) -> conjuncts (Some a) @ conjuncts (Some b)
    | Some e -> [ e ]
    | None -> []
  in
  let cs = conjuncts where in
  (* rowid constraints *)
  let lo = ref None and hi = ref None in
  let tighten_lo v = match !lo with Some x when Int64.compare x v >= 0 -> () | _ -> lo := Some v in
  let tighten_hi v = match !hi with Some x when Int64.compare x v <= 0 -> () | _ -> hi := Some v in
  let rowid_of e = match const e with Some v -> Some (Value.to_int64 v) | None -> None in
  List.iter
    (fun c ->
      match c with
      | Binop (Eq, Column (_, n), e) when Catalog.is_rowid_column ti n -> (
          match rowid_of e with
          | Some v -> tighten_lo v; tighten_hi v
          | None -> ())
      | Binop (Eq, e, Column (_, n)) when Catalog.is_rowid_column ti n -> (
          match rowid_of e with
          | Some v -> tighten_lo v; tighten_hi v
          | None -> ())
      | Binop (Ge, Column (_, n), e) when Catalog.is_rowid_column ti n -> (
          match rowid_of e with Some v -> tighten_lo v | None -> ())
      | Binop (Gt, Column (_, n), e) when Catalog.is_rowid_column ti n -> (
          match rowid_of e with Some v -> tighten_lo (Int64.add v 1L) | None -> ())
      | Binop (Le, Column (_, n), e) when Catalog.is_rowid_column ti n -> (
          match rowid_of e with Some v -> tighten_hi v | None -> ())
      | Binop (Lt, Column (_, n), e) when Catalog.is_rowid_column ti n -> (
          match rowid_of e with Some v -> tighten_hi (Int64.sub v 1L) | None -> ())
      | Between (Column (_, n), a, b) when Catalog.is_rowid_column ti n -> (
          match (rowid_of a, rowid_of b) with
          | Some a, Some b -> tighten_lo a; tighten_hi b
          | _ -> ())
      | _ -> ())
    cs;
  if !lo <> None || !hi <> None then (Rowid_range (!lo, !hi), Rowid_bounds)
  else begin
    (* single-column index equality or range *)
    let pick =
      List.find_map
        (fun c ->
          match c with
          | Binop (Eq, Column (_, n), e) | Binop (Eq, e, Column (_, n)) -> (
              match (find_index t ti.Catalog.tbl_name n, const e) with
              | Some ii, Some v -> Some (Index_range (ii, [ v ], None, None), Index_eq)
              | _ -> None)
          | Between (Column (_, n), a, b) -> (
              match (find_index t ti.Catalog.tbl_name n, const a, const b) with
              | Some ii, Some lo, Some hi ->
                  Some (Index_range (ii, [], Some lo, Some hi), Index_bounds)
              | _ -> None)
          | Binop (Ge, Column (_, n), e) -> (
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
              else Some ts.Catalog.ts_rows))

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
