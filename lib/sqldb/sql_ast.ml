(* SQL abstract syntax, and the two traversals the resolver and the
   planner share. *)

type binop =
  | Add | Sub | Mul | Div | Mod | Concat
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

(* What the resolver binds a name or an aggregate call to. *)
type slot =
  | Field of int * int  (* FROM source, column *)
  | Rowid of int  (* FROM source *)
  | Agg of int  (* position in the statement's aggregate list *)
  | Output of int  (* result column, for an ORDER BY term *)

type expr =
  | Lit of Value.t
  | Param of int  (* the [i]th [?] of its statement, counted from 1 *)
  | Column of string option * string  (* table qualifier, name *)
  | Star  (* the star argument of count, and select lists *)
  | Binop of binop * expr * expr
  | Not of expr
  | Neg of expr
  | Is_null of expr * bool  (* IS NULL / IS NOT NULL *)
  | Between of expr * expr * expr
  | In_list of expr * expr list
  | Like of expr * expr
  | Call of string * expr list  (* functions and aggregates *)
  | Case of (expr * expr) list * expr option  (* WHEN cond THEN v ..., ELSE *)
  | Cast of expr * string
  | Bound of slot * expr
      (* made by [Resolve.bind], never by the parser: the slot of the
         expression it carries, which EXPLAIN still renders *)

type order_item = { ord_expr : expr; ord_desc : bool }

type column_def = {
  col_name : string;
  col_type : string;  (* INTEGER | TEXT | REAL | BLOB | "" *)
  col_pk : bool;
  col_not_null : bool;
  col_default : expr option;
}

type join = { jt_table : string; jt_alias : string option; jt_on : expr option }

type select = {
  sel_exprs : (expr * string option) list;  (* expr, alias *)
  sel_distinct : bool;
  sel_from : (string * string option) option;  (* table, alias *)
  sel_joins : join list;
  sel_where : expr option;
  sel_group : expr list;
  sel_having : expr option;
  sel_order : order_item list;
  sel_limit : expr option;
  sel_offset : expr option;
}

type stmt =
  | Select of select
  | Insert of {
      ins_table : string;
      ins_columns : string list;  (* empty = all *)
      ins_rows : expr list list;
    }
  | Update of {
      upd_table : string;
      upd_sets : (string * expr) list;
      upd_where : expr option;
    }
  | Delete of { del_table : string; del_where : expr option }
  | Create_table of {
      ct_name : string;
      ct_if_not_exists : bool;
      ct_columns : column_def list;
    }
  | Create_index of {
      ci_name : string;
      ci_table : string;
      ci_columns : string list;
      ci_unique : bool;
      ci_if_not_exists : bool;
    }
  | Drop_table of { dt_name : string; dt_if_exists : bool }
  | Drop_index of { di_name : string; di_if_exists : bool }
  | Begin
  | Commit
  | Rollback
  | Pragma of string * Value.t option
  | Analyze
  | Vacuum
  | Explain of { ex_analyze : bool; ex_stmt : stmt }

(* An operator as SQL spells it. *)
let binop_text = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Concat -> "||" | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<="
  | Gt -> ">" | Ge -> ">=" | And -> "AND" | Or -> "OR"

(* [e] and each of its sub-expressions satisfy [p]. *)
let rec for_all_sub p e =
  p e
  &&
  match e with
  | Lit _ | Param _ | Column _ | Star | Bound _ -> true
  | Binop (_, a, b) | Like (a, b) -> for_all_sub p a && for_all_sub p b
  | Not a | Neg a | Is_null (a, _) | Cast (a, _) -> for_all_sub p a
  | Between (a, b, c) -> for_all_sub p a && for_all_sub p b && for_all_sub p c
  | In_list (a, es) -> for_all_sub p a && List.for_all (for_all_sub p) es
  | Call (_, es) -> List.for_all (for_all_sub p) es
  | Case (arms, e) ->
      List.for_all (fun (c, v) -> for_all_sub p c && for_all_sub p v) arms
      && Option.fold ~none:true ~some:(for_all_sub p) e

(* [e] with [f] applied to each of its immediate sub-expressions, left
   to right. *)
let map_sub f e =
  match e with
  | Lit _ | Param _ | Column _ | Star | Bound _ -> e
  | Binop (op, a, b) -> let a = f a in Binop (op, a, f b)
  | Not a -> Not (f a)
  | Neg a -> Neg (f a)
  | Is_null (a, pos) -> Is_null (f a, pos)
  | Between (a, b, c) -> let a = f a in let b = f b in Between (a, b, f c)
  | In_list (a, es) -> let a = f a in In_list (a, List.map f es)
  | Like (a, b) -> let a = f a in Like (a, f b)
  | Call (n, es) -> Call (n, List.map f es)
  | Case (arms, e) ->
      let arms = List.map (fun (c, v) -> let c = f c in (c, f v)) arms in
      Case (arms, Option.map f e)
  | Cast (a, ty) -> Cast (f a, ty)

(* [e] holds a parameter, also in the expression a [Bound] node carries
   for EXPLAIN. *)
let rec has_param e =
  not
    (for_all_sub
       (function Param _ -> false | Bound (_, orig) -> not (has_param orig) | _ -> true)
       e)

(* [e] with each parameter [Param i] replaced by [Lit values.(i - 1)]: a
   sub-expression without one is [e]'s own, so only the paths down to
   the parameters are copied. *)
let rec subst values e =
  if not (has_param e) then e
  else
    match e with
    | Param i -> Lit values.(i - 1)
    | Bound (slot, orig) -> Bound (slot, subst values orig)
    | _ -> map_sub (subst values) e
