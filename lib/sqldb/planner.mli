(** Planner layer: ON- and WHERE-clause analysis into an access path per
    FROM source, the [sqldb.plan] trace event, and row estimates from the
    ANALYZE statistics cache. *)

type plan =
  | Full_scan
  | Rowid_range of int64 option * int64 option  (** inclusive bounds *)
  | Index_range of
      Catalog.index_info * Value.t list * Value.t option * Value.t option
      (** equality prefix, then optional lo/hi bound on the next column *)
  | Rowid_probe of Sql_ast.expr
      (** an inner table's rowid equal to a key over its outer tables *)
  | Index_probe of Catalog.index_info * Sql_ast.expr
      (** an inner table's first index column equal to such a key *)

(** Why the access path was (or was not) chosen — carried into the
    [sqldb.plan] trace event so silent plan flips are visible. *)
type reason =
  | No_where
  | Rowid_bounds
  | Index_eq
  | Index_bounds
  | No_usable_path
  | Join_inner
  | Join_probe

val render_expr : Sql_ast.expr -> string
(** Compact rendering of an expression, for operator details; a
    {!Sql_ast.Bound} node renders the expression it replaced. *)

val foldable : (int -> bool) -> Sql_ast.expr -> bool
(** [foldable ok e]: bound [e] calls no random function and reads only
    sources that pass [ok], so it can be evaluated ahead of the rows. *)

val reason_label : reason -> string
val reason_code : reason -> int
val path_label : plan -> string
val path_code : plan -> int

val record_plan : Catalog.db -> Catalog.table_info -> plan -> reason -> unit
(** Emits a [sqldb.plan.<path>] counter (plus [sqldb.plan.fallback] for
    {!No_usable_path}) and an instant [sqldb.plan] trace event carrying
    the coded path/reason — no-op without an observability registry. *)

val find_index : Catalog.db -> string -> string -> Catalog.index_info option
(** First index on the table whose leading column matches. *)

val plan_for :
  Catalog.db -> Catalog.table_info -> int ->
  const:(Sql_ast.expr -> Value.t option) ->
  Sql_ast.expr list -> plan * reason
(** [plan_for t ti i ~const clauses]: the access path for table [ti],
    source [i] of its FROM list, from the top-level AND conjuncts of the
    ON and WHERE [clauses], which {!Resolve.bind} has bound once for the
    statement: a column's source is read from its slot. Source 0 gets a
    rowid range or an index equality or range from the conjuncts that
    read only it; [const] evaluates column-free expressions (None when
    impure or column-dependent). A later source is probed
    ({!Join_probe}) by its rowid, or by the first column of an index,
    when a conjunct sets it equal to a key that reads only the sources to
    its left, and scanned ({!Join_inner}) otherwise. *)

val bind_probe : plan -> eval:(Sql_ast.expr -> Value.t) -> plan option
(** The path to read for the current outer row: a probe's key, evaluated
    by [eval], becomes a rowid or index equality range, or [None] when
    no row can equal it; any other plan is returned as is. *)

val estimate : Catalog.db -> Catalog.table_info -> plan -> int option
(** Estimated rows produced by an access path; [None] when the table has
    never been ANALYZEd. *)

val describe : plan -> string
(** Human-readable access-path description for EXPLAIN output. *)
