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
  os_detail : string Lazy.t;
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

type stmt = Executor.prepared

let prepare t sql =
  match Parser.statements sql with
  | [ (stmt, params) ] -> Executor.prepare t stmt ~params
  | stmts -> Catalog.fail "prepare takes one statement, got %d" (List.length stmts)

let step = Executor.step

let exec t sql =
  List.fold_left
    (fun _ (stmt, params) -> step (Executor.prepare t stmt ~params) [||])
    Executor.empty_result (Parser.statements sql)

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

(* A statement's work shares: one per operator (preorder), then the
   overhead. *)
let shares (p : profile) =
  List.map (fun o -> (o.os_name, o.os_work)) p.pr_ops
  @ [ ("overhead", p.pr_overhead_work) ]

let audit (p : profile) =
  { Twine_obs.Audit.law = "sql"; unit = ""; total = ("work", p.pr_total_work);
    parts = shares p }

let slice_ns = Catalog.slice_ns

let slices t ~total_ns =
  let shares = List.concat_map shares (profiles t) in
  List.combine (List.map fst shares) (slice_ns ~total_ns (List.map snd shares))

let set_ns_per_work (t : t) ns = t.Catalog.ns_hint <- ns
