(** Executor layer: statement binding, expression evaluation and the
    instrumented operator tree. Each statement runs under a profiling
    wrapper so that statement work = sum(operator self-work) + overhead
    work holds by construction (the zero-residue conservation law); the
    recorded profiles are read back through {!Db.profiles}. *)

type result = { columns : string list; rows : Value.t list list; affected : int }

val empty_result : result

type prepared
(** A parsed statement, bound to the schema at its first {!step} and
    again whenever the schema version has moved since. *)

val prepare : Catalog.db -> Sql_ast.stmt -> params:int -> prepared
(** [prepare t stmt ~params]: [stmt] holds [params] parameters,
    [Param 1] to [Param params]. Binds nothing and reads no page. *)

val step : prepared -> Value.t array -> result
(** Execute the statement with [values.(i - 1)] for [Param i], recording
    its per-operator profile. The values replace the parameters as
    literals in the bound statement, so planning, evaluation, work and
    EXPLAIN are those of the statement with the values written in.
    [EXPLAIN <stmt>] renders the operator tree with planner estimates
    without executing; [EXPLAIN ANALYZE <stmt>] executes and renders
    estimates next to actuals (plus a [cycles] column when a
    ns-per-work hint is installed).
    @raise Catalog.Sql_error when [values] does not hold one value per
    parameter, and on the statement's own errors. *)

val stmt_label : Sql_ast.stmt -> string
(** Statement kind + target, e.g. ["select(t)"] — the [pr_stmt] naming
    used in profiles. *)
