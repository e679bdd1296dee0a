(* Public facade over the split engine: Catalog (handle + schema +
   stats), Planner (access paths + estimates), Executor (instrumented
   operator tree). Kept thin so the per-layer modules stay the single
   source of truth. *)

exception Sql_error = Catalog.Sql_error

type t = Catalog.db

type result = Executor.result = {
  columns : string list;
  rows : Value.t list list;
  affected : int;
}

type opstat = Catalog.opstat = {
  os_depth : int;
  os_name : string;
  os_detail : string;
  os_est_rows : int option;
  os_rows_in : int;
  os_rows_out : int;
  os_loops : int;
  os_reads : int;
  os_writes : int;
  os_work : int;
}

type profile = Catalog.profile = {
  pr_stmt : string;
  pr_ops : opstat list;
  pr_overhead_work : int;
  pr_total_work : int;
}

let open_db = Catalog.open_db
let close = Catalog.close

let exec t sql =
  let stmts = Parser.parse sql in
  List.fold_left (fun _ stmt -> Executor.exec_stmt t stmt) Executor.empty_result stmts

let query t sql = (exec t sql).rows

let query_one t sql =
  match query t sql with
  | [ v :: _ ] -> v
  | [] -> Catalog.fail "query returned no rows"
  | _ -> Catalog.fail "query returned more than one value"

let last_insert_rowid (t : t) = t.Catalog.last_rowid

let work (t : t) = t.Catalog.work

let reset_work (t : t) =
  t.Catalog.work <- 0;
  t.Catalog.profiles <- []

let pager (t : t) = t.Catalog.pager

let profiles = Catalog.profiles
let last_profile = Catalog.last_profile

let audit (p : profile) =
  { Twine_obs.Audit.law = "sql"; unit = ""; total = ("work", p.pr_total_work);
    parts =
      List.map (fun o -> (o.os_name, o.os_work)) p.pr_ops
      @ [ ("overhead", p.pr_overhead_work) ] }

let slice_ns = Catalog.slice_ns

let set_ns_per_work (t : t) ns = t.Catalog.ns_hint <- ns
