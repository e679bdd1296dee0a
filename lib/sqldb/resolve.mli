(** Name resolution: each name of a statement bound once, before its
    first page is read, to a {!Sql_ast.slot} carried by a
    {!Sql_ast.Bound} node. *)

val bind :
  (string * Catalog.table_info) list -> Sql_ast.expr list ref option ->
  Sql_ast.expr -> Sql_ast.expr
(** [bind sources aggs e]: [e] with each column reference bound to its
    slot over [sources], the FROM list's (alias or table name, table)
    pairs. A qualifier names the first source with that alias (its table
    name when it has none); an unqualified name reads the first source
    with that column, and an unqualified [rowid] the first source. Each
    aggregate call, its arguments bound, is pushed on [aggs] and bound to
    its position counted from the bottom.
    @raise Catalog.Sql_error on an unknown table or column, or on an
    aggregate where [aggs] is [None]. *)

val bind_select :
  (string * Catalog.table_info) list -> Sql_ast.select ->
  Sql_ast.select * string list * Sql_ast.expr array
(** The statement with [*] expanded and every expression bound, its
    result labels, and its aggregate calls in slot order. It aggregates
    when it has a GROUP BY or an aggregate in its result or HAVING; only
    then may ORDER BY hold one. An ORDER BY position, or a label that
    outside aggregation names no source column, becomes
    [Bound (Output i, _)]; any other term is bound as an expression.
    @raise Catalog.Sql_error as {!bind} does, and on a position out of
    range. *)
