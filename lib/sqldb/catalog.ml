(* Catalog layer of the database engine: the shared handle (pager,
   schema objects, transaction flag, work meter), catalog
   (de)serialisation into the page-1 B-tree, and the ANALYZE statistics
   cache the planner estimates from.

   The engine is split per the ROADMAP refactor note:
     catalog.ml   — this file: handle + schema + stats
     resolve.ml   — names bound once per statement to slots
     planner.ml   — WHERE analysis into access paths + row estimates
     executor.ml  — expression evaluation and the instrumented operator
                    tree that executes statements
     db.ml        — the public facade *)

open Sql_ast

exception Sql_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

type table_info = {
  tbl_name : string;
  mutable tbl_root : int;
  tbl_columns : column_def list;
  tbl_rowid_col : string option;  (* INTEGER PRIMARY KEY alias *)
}

type index_info = {
  idx_name : string;
  idx_table : string;
  idx_columns : string list;
  idx_unique : bool;
  mutable idx_root : int;
}

(* --- ANALYZE statistics (selectivity substrate for the planner) --- *)

type col_stats = {
  cs_distinct : int;  (* distinct non-NULL values *)
  cs_nulls : int;
  cs_hist : (Value.t * Value.t * int) array;
      (* equi-depth buckets over the sorted non-NULL values:
         (lo, hi, count), bounds ascending and non-overlapping *)
}

type tbl_stats = {
  ts_rows : int;
  ts_cols : (string * col_stats) list;  (* keyed by lowercased name *)
}

(* Names of the persisted stat tables. [stat1] keeps its original
   (tbl, idx, stat) schema — its contents are pinned by tests and by
   the paper's test 990; the per-column stats live alongside. *)
let stat_table_names = [ "stat1"; "stat_col"; "stat_hist" ]
let is_stat_table name = List.mem (String.lowercase_ascii name) stat_table_names

(* --- per-operator work attribution --- *)

(* A mutable cell operators hand to the work meter: while an operator is
   the current sink, every work unit lands both in the statement total
   and in its cell, so per-operator self-work sums to the statement's
   work by construction (the zero-residue conservation law). *)
type attr = { mutable a_work : int }

let new_attr () = { a_work = 0 }

(* Flattened per-operator actuals of one executed (or planned)
   statement, preorder. Plain data so every layer above can consume it
   without depending on the executor's live tree. *)
type opstat = {
  os_depth : int;
  os_name : string;  (* "scan", "filter", "project", "sort", ... *)
  os_detail : string Lazy.t;  (* access path / rendered expression *)
  os_est_rows : int option;  (* planner estimate, when stats exist *)
  os_rows_in : int;
  os_rows_out : int;
  os_loops : int;
  os_reads : int;  (* pager page reads while this operator ran *)
  os_writes : int;
  os_work : int;  (* self work units *)
}

type profile = {
  pr_stmt : string;  (* statement kind + target, e.g. "select(t)" *)
  pr_ops : opstat list;  (* preorder *)
  pr_overhead_work : int;  (* statement work outside any operator *)
  pr_total_work : int;  (* work-meter delta of the whole statement *)
}

type db = {
  pager : Pager.t;
  tables : (string, table_info) Hashtbl.t;
  indexes : (string, index_info) Hashtbl.t;
  mutable explicit_txn : bool;
  prng : Twine_crypto.Drbg.t;
  mutable work : int;
  mutable last_rowid : int64;
  obs : Twine_obs.Obs.t option;
  mutable sink : attr option;  (* current operator's self-work cell *)
  mutable stats : (string * tbl_stats) list;  (* ANALYZE cache *)
  mutable profiles : profile list;  (* newest first; cleared by reset_work *)
  mutable ns_hint : float;  (* ns per work unit, for EXPLAIN ANALYZE cycles *)
  mutable schema_version : int;  (* moved by each catalog save and load *)
}

(* The single work-meter bump site: statement total plus the current
   operator's self-work cell. *)
let bump t n =
  t.work <- t.work + n;
  match t.sink with Some a -> a.a_work <- a.a_work + n | None -> ()

let record_profile t p = t.profiles <- p :: t.profiles

let profiles t = List.rev t.profiles

let last_profile t = match t.profiles with p :: _ -> Some p | [] -> None

(* Slice [total_ns] across work shares by cumulative rounding:
   slice_i = round(cum_i/total_work * total_ns) - round(cum_{i-1}/...).
   Cumulative sums are monotone so every slice is non-negative, and the
   last cumulative equals [total_ns] exactly, so the slices sum to the
   booking with zero residue — the conservation law the bench gates. *)
let slice_ns ~total_ns works =
  let tw = List.fold_left ( + ) 0 works in
  if tw <= 0 then
    match List.rev works with
    | [] -> []
    | _ :: rest -> List.rev (total_ns :: List.map (fun _ -> 0) rest)
  else begin
    let cum = ref 0 and prev = ref 0 in
    List.map
      (fun w ->
        cum := !cum + w;
        let upto =
          int_of_float
            (Float.round (float_of_int !cum /. float_of_int tw *. float_of_int total_ns))
        in
        let s = upto - !prev in
        prev := upto;
        s)
      works
  end

let catalog_root = 1

(* --- catalog (de)serialisation --- *)

(* A name as a catalog record stores it: '%', ';' and ':' as "%25",
   "%3b" and "%3a", so that ';' between columns and ':' between a
   column's fields stay separators. A name without them keeps its
   bytes. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '%' -> Buffer.add_string b "%25"
      | ';' -> Buffer.add_string b "%3b"
      | ':' -> Buffer.add_string b "%3a"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  match String.split_on_char '%' s with
  | [] | [ _ ] -> s
  | first :: rest ->
      let part p =
        let n = String.length p in
        (match if n < 2 then "" else String.sub p 0 2 with
        | "25" -> "%"
        | "3b" -> ";"
        | "3a" -> ":"
        | _ -> raise (Pager.Corrupt "bad catalog name"))
        ^ String.sub p 2 (n - 2)
      in
      String.concat "" (first :: List.map part rest)

let encode_column c =
  String.concat ":"
    [ escape c.col_name; escape c.col_type; (if c.col_pk then "1" else "0");
      (if c.col_not_null then "1" else "0") ]

let decode_column s =
  match String.split_on_char ':' s with
  | [ name; ty; pk; nn ] ->
      { col_name = unescape name; col_type = unescape ty; col_pk = pk = "1";
        col_not_null = nn = "1"; col_default = None }
  | _ -> raise (Pager.Corrupt "bad catalog column")

let rowid_col_of columns =
  List.find_map
    (fun c -> if c.col_pk && c.col_type = "INTEGER" then Some c.col_name else None)
    columns

(* The optional fifth field of a table's catalog record: its column
   defaults as one record of their SQL texts (NULL for a column without
   one), absent when no column has one. *)
let defaults_field columns =
  if List.for_all (fun c -> c.col_default = None) columns then []
  else
    [ Value.Blob
        (Record.encode
           (List.map
              (fun c ->
                match c.col_default with
                | Some e -> Value.Text (Parser.to_sql e)
                | None -> Value.Null)
              columns)) ]

let with_defaults columns field =
  let corrupt () = raise (Pager.Corrupt "bad catalog defaults") in
  match field with
  | [] -> columns
  | [ Value.Blob record ] -> (
      match Record.decode record with
      | defaults when List.compare_lengths defaults columns = 0 ->
          List.map2
            (fun c d ->
              match d with
              | Value.Text sql -> { c with col_default = Some (Parser.expr_of_string sql) }
              | Value.Null -> c
              | _ -> corrupt ())
            columns defaults
      | _ -> corrupt ())
  | _ -> corrupt ()

let save_catalog t =
  t.schema_version <- t.schema_version + 1;
  (* rebuild the catalog tree in place *)
  Btree.init t.pager catalog_root Btree.Table;
  let seq = ref 0L in
  let add values =
    seq := Int64.add !seq 1L;
    Btree.insert_table t.pager ~root:catalog_root ~rowid:!seq (Record.encode values)
  in
  Hashtbl.iter
    (fun _ (ti : table_info) ->
      add
        ([ Value.Text "table"; Value.Text ti.tbl_name;
           Value.Int (Int64.of_int ti.tbl_root);
           Value.Text (String.concat ";" (List.map encode_column ti.tbl_columns)) ]
        @ defaults_field ti.tbl_columns))
    t.tables;
  Hashtbl.iter
    (fun _ (ii : index_info) ->
      add
        [ Value.Text "index"; Value.Text ii.idx_name;
          Value.Int (Int64.of_int ii.idx_root); Value.Text ii.idx_table;
          Value.Text (String.concat ";" (List.map escape ii.idx_columns));
          Value.Int (if ii.idx_unique then 1L else 0L) ])
    t.indexes

let load_catalog t =
  t.schema_version <- t.schema_version + 1;
  Btree.iter_table t.pager ~root:catalog_root (fun _ payload ->
      (match Record.decode payload with
      | Value.Text "table" :: Value.Text name :: Value.Int root :: Value.Text cols :: defaults ->
          let tbl_columns =
            with_defaults
              (if cols = "" then [] else List.map decode_column (String.split_on_char ';' cols))
              defaults
          in
          Hashtbl.replace t.tables name
            {
              tbl_name = name;
              tbl_root = Int64.to_int root;
              tbl_columns;
              tbl_rowid_col = rowid_col_of tbl_columns;
            }
      | [ Value.Text "index"; Value.Text name; Value.Int root; Value.Text table;
          Value.Text cols; Value.Int unique ] ->
          Hashtbl.replace t.indexes name
            {
              idx_name = name;
              idx_table = table;
              idx_columns = List.map unescape (String.split_on_char ';' cols);
              idx_unique = unique = 1L;
              idx_root = Int64.to_int root;
            }
      | _ -> raise (Pager.Corrupt "bad catalog entry"));
      true)

(* --- schema lookups --- *)

let table t name =
  match Hashtbl.find_opt t.tables (String.lowercase_ascii name) with
  | Some ti -> ti
  | None -> fail "no such table: %s" name

let rec name_eq_from a b i =
  i = String.length a
  || Char.lowercase_ascii (String.unsafe_get a i) = Char.lowercase_ascii (String.unsafe_get b i)
     && name_eq_from a b (i + 1)

(* [String.lowercase_ascii a = String.lowercase_ascii b], copying
   nothing. Top-level recursion: a local recursive closure would
   allocate. *)
let name_eq a b = String.length a = String.length b && name_eq_from a b 0

let rec col_index_from name i = function
  | [] -> None
  | c :: rest -> if name_eq c.col_name name then Some i else col_index_from name (i + 1) rest

let col_index ti name = col_index_from name 0 ti.tbl_columns

let is_rowid_column ti name =
  name_eq name "rowid"
  || match ti.tbl_rowid_col with Some pk -> name_eq pk name | None -> false

let indexes_of t table_name =
  Hashtbl.fold
    (fun _ ii acc -> if name_eq ii.idx_table table_name then ii :: acc else acc)
    t.indexes []

(* --- statistics cache --- *)

let stats_for t name = List.assoc_opt (String.lowercase_ascii name) t.stats

let col_stats_for t tbl col =
  match stats_for t tbl with
  | None -> None
  | Some ts -> List.assoc_opt (String.lowercase_ascii col) ts.ts_cols

let set_stats t stats = t.stats <- stats

(* Rebuild the in-memory cache from the persisted stat tables (present
   when the database was ANALYZEd before being reopened). Reads the
   stored records positionally — the stat tables have no rowid alias, so
   every column is in the payload. *)
let load_stats t =
  let rows_of name =
    match Hashtbl.find_opt t.tables name with
    | None -> []
    | Some ti ->
        let acc = ref [] in
        Btree.iter_table t.pager ~root:ti.tbl_root (fun _ payload ->
            acc := Record.decode payload :: !acc;
            true);
        List.rev !acc
  in
  let rowcounts =
    List.filter_map
      (function
        | [ Value.Text tbl; Value.Null; Value.Int n ] -> Some (tbl, Int64.to_int n)
        | _ -> None)
      (rows_of "stat1")
  in
  let cols =
    List.filter_map
      (function
        | [ Value.Text tbl; Value.Text col; Value.Int nd; Value.Int nn ] ->
            Some ((tbl, col), (Int64.to_int nd, Int64.to_int nn))
        | _ -> None)
      (rows_of "stat_col")
  in
  let hists = Hashtbl.create 8 in
  List.iter
    (function
      | [ Value.Text tbl; Value.Text col; Value.Int b; lo; hi; Value.Int cnt ] ->
          let key = (tbl, col) in
          let old = Option.value (Hashtbl.find_opt hists key) ~default:[] in
          Hashtbl.replace hists key
            ((Int64.to_int b, (lo, hi, Int64.to_int cnt)) :: old)
      | _ -> ())
    (rows_of "stat_hist");
  let stats =
    List.map
      (fun (tbl, rows) ->
        let ts_cols =
          List.filter_map
            (fun ((t', col), (nd, nn)) ->
              if t' <> tbl then None
              else
                let hist =
                  match Hashtbl.find_opt hists (tbl, col) with
                  | None -> [||]
                  | Some buckets ->
                      Array.of_list
                        (List.map snd
                           (List.sort (fun (a, _) (b, _) -> compare a b) buckets))
                in
                Some
                  ( String.lowercase_ascii col,
                    { cs_distinct = nd; cs_nulls = nn; cs_hist = hist } ))
            cols
        in
        (String.lowercase_ascii tbl, { ts_rows = rows; ts_cols }))
      rowcounts
  in
  t.stats <- stats

(* --- open/close --- *)

let open_db ?vfs ?(cache_pages = 2048) ?hooks ?obs path =
  let vfs =
    match vfs with Some v -> v | None -> Svfs.of_backing (Twine_sim.Backing.memory ())
  in
  let fresh = not (vfs.Svfs.v_exists path) in
  let pager = Pager.create_or_open vfs ~cache_pages ?hooks ?obs path in
  let t =
    {
      pager;
      tables = Hashtbl.create 8;
      indexes = Hashtbl.create 8;
      explicit_txn = false;
      prng = Twine_crypto.Drbg.create ~seed:"sqldb-prng" ();
      work = 0;
      last_rowid = 0L;
      obs;
      sink = None;
      stats = [];
      profiles = [];
      ns_hint = 0.;
      schema_version = 0;
    }
  in
  if fresh || Pager.n_pages pager <= 1 then begin
    Pager.begin_txn pager;
    let root = Btree.create pager Btree.Table in
    assert (root = catalog_root);
    Pager.commit pager
  end
  else begin
    load_catalog t;
    load_stats t
  end;
  t

let close t = Pager.close t.pager
