(* Name resolution: every name of a statement bound once, before its
   first page is read, as SQLite's resolve.c does at prepare time. A
   column reference becomes [Bound (Field (source, column) | Rowid
   source, original)], an aggregate call [Bound (Agg i, original)] with
   the call kept at position [i] of the statement's aggregate list, and
   an ORDER BY term naming a result column [Bound (Output i, original)].
   The planner reads sources from the slots, the executor reads values
   from them, and EXPLAIN renders the originals. *)

open Sql_ast

(* count, sum, avg and total, and min and max of one argument (with more
   they are scalar). *)
let is_aggregate = function
  | Call (("count" | "sum" | "avg" | "total"), _) | Call (("min" | "max"), [ _ ]) -> true
  | _ -> false

(* The slot of column [n], qualified by [q] or not, over [sources] from
   position [i] on (top-level recursion: a local closure would allocate). *)
let rec column_slot q n is_rowid i = function
  | [] -> (
      match q with
      | Some q -> Catalog.fail "no such table %s" q
      | None -> Catalog.fail "no such column %s" n)
  | (name, ti) :: rest -> (
      match q with
      | Some q' when not (Catalog.name_eq name q') -> column_slot q n is_rowid (i + 1) rest
      | _ when is_rowid -> Rowid i
      | _ -> (
          match (Catalog.col_index ti n, q) with
          | Some c, _ -> Field (i, c)
          | None, Some q -> Catalog.fail "no such column %s.%s" q (String.lowercase_ascii n)
          | None, None -> column_slot q n is_rowid (i + 1) rest))

let rec bind sources aggs e =
  match e with
  | Lit _ | Param _ | Star | Bound _ -> e
  | Column (q, n) -> Bound (column_slot q n (Catalog.name_eq n "rowid") 0 sources, e)
  | Call (n, _) when is_aggregate e -> (
      match aggs with
      | None -> Catalog.fail "aggregate %s not allowed here" n
      | Some l ->
          l := map_sub (bind sources None) e :: !l;
          Bound (Agg (List.length !l - 1), e))
  | e -> map_sub (bind sources aggs) e

let constant e = bind [] None e

(* An ORDER BY term names a result column by its position, or by its
   label unless, outside aggregation, a source has a column of that name:
   SQLite lets the label win there too, but Speedtest's [ORDER BY b] over
   [SELECT a, b] reads [b] of each row, and that work is on the virtual
   clock. Any other term is an expression over the row, or, where
   [grouped] holds the aggregates, over the group. *)
let order_term sources labels grouped o =
  let ord_expr =
    match o.ord_expr with
    | Lit (Value.Int k) as e ->
        let n = List.length labels in
        if k < 1L || k > Int64.of_int n then
          Catalog.fail "ORDER BY term out of range - should be between 1 and %d" n;
        Bound (Output (Int64.to_int k - 1), e)
    | Column (None, n) as e
      when grouped <> None
           || not (List.exists (fun (_, ti) -> Catalog.col_index ti n <> None) sources) -> (
        match List.find_index (fun l -> Catalog.name_eq l n) labels with
        | Some i -> Bound (Output i, e)
        | None -> bind sources None e)
    | e -> bind sources grouped e
  in
  { o with ord_expr }

let bind_select sources s =
  let aggs = ref [] in
  let in_result = Some aggs and plain e = bind sources None e in
  let star (name, ti) =
    List.map (fun c -> (Column (Some name, c.col_name), Some c.col_name)) ti.Catalog.tbl_columns
  in
  let exprs =
    if List.mem_assq Star s.sel_exprs then
      List.concat_map
        (function Star, _ -> List.concat_map star sources | item -> [ item ])
        s.sel_exprs
    else s.sel_exprs
  in
  let labels =
    List.mapi
      (fun i (e, alias) ->
        match (alias, e) with
        | Some a, _ -> a
        | None, Column (_, n) -> n
        | None, _ -> Printf.sprintf "column%d" (i + 1))
      exprs
  in
  let sel_exprs = List.map (fun (e, alias) -> (bind sources in_result e, alias)) exprs in
  let sel_joins = List.map (fun j -> { j with jt_on = Option.map plain j.jt_on }) s.sel_joins in
  let sel_where = Option.map plain s.sel_where in
  let sel_group = List.map plain s.sel_group in
  let sel_having = Option.map (bind sources in_result) s.sel_having in
  let grouped = if sel_group <> [] || !aggs <> [] then in_result else None in
  let sel_order = List.map (order_term sources labels grouped) s.sel_order in
  let sel_limit = Option.map constant s.sel_limit in
  let sel_offset = Option.map constant s.sel_offset in
  ( { s with sel_exprs; sel_joins; sel_where; sel_group; sel_having; sel_order; sel_limit;
      sel_offset },
    labels,
    Array.of_list (List.rev !aggs) )
