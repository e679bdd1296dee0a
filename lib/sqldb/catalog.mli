(** Catalog layer: the shared database handle, schema objects and their
    (de)serialisation into the page-1 B-tree, the ANALYZE statistics
    cache, and the per-operator work-attribution substrate. *)

exception Sql_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Sql_error} with the formatted message. *)

type table_info = {
  tbl_name : string;
  mutable tbl_root : int;
  tbl_columns : Sql_ast.column_def list;
  tbl_rowid_col : string option;  (** INTEGER PRIMARY KEY alias *)
}

type index_info = {
  idx_name : string;
  idx_table : string;
  idx_columns : string list;
  idx_unique : bool;
  mutable idx_root : int;
}

(** {2 ANALYZE statistics} *)

type col_stats = {
  cs_distinct : int;  (** distinct non-NULL values *)
  cs_nulls : int;
  cs_hist : (Value.t * Value.t * int) array;
      (** equi-depth buckets (lo, hi, count) over the sorted non-NULL
          values; bounds ascending, counts summing to the non-NULL row
          count *)
}

type tbl_stats = {
  ts_rows : int;
  ts_cols : (string * col_stats) list;  (** keyed by lowercased name *)
}

val stat_table_names : string list
val is_stat_table : string -> bool

(** {2 Per-operator work attribution} *)

type attr = { mutable a_work : int }
(** The work cell of one operator: while installed as the handle's
    [sink], every {!bump} lands both in the statement total and here. *)

val new_attr : unit -> attr

type opstat = {
  os_depth : int;
  os_name : string;
  os_detail : string Lazy.t;  (** rendered only when read *)
  os_est_rows : int option;
  os_rows_in : int;
  os_rows_out : int;
  os_loops : int;
  os_reads : int;
  os_writes : int;
  os_work : int;
}

type profile = {
  pr_stmt : string;
  pr_ops : opstat list;
  pr_overhead_work : int;
  pr_total_work : int;
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
  mutable sink : attr option;
  mutable stats : (string * tbl_stats) list;
  mutable profiles : profile list;
  mutable ns_hint : float;
  mutable schema_version : int;
      (** moved by every {!save_catalog} and {!load_catalog}: a statement
          bound at another version is bound again *)
}

val bump : db -> int -> unit
(** The single work-meter bump site: statement total plus the current
    sink's cell. *)

val record_profile : db -> profile -> unit

val profiles : db -> profile list
(** Recorded profiles, oldest first. *)

val last_profile : db -> profile option

val slice_ns : total_ns:int -> int list -> int list
(** Residue-free proportional split of [total_ns] across work shares by
    cumulative rounding: each slice non-negative, slices summing to
    [total_ns] exactly. An empty list yields an empty list; a zero work
    total puts the whole booking on the last share. *)

(** {2 Catalog persistence and schema lookups} *)

val catalog_root : int

val save_catalog : db -> unit
(** Rewrites the catalog tree from the in-memory schema. A table with a
    column DEFAULT stores the defaults as SQL text in a fifth field; a
    table without one keeps the four-field record. *)

val load_catalog : db -> unit
val rowid_col_of : Sql_ast.column_def list -> string option

val table : db -> string -> table_info
(** @raise Sql_error when the table does not exist. *)

val name_eq : string -> string -> bool
(** ASCII case-insensitive equality of two names, allocating nothing. *)

val col_index : table_info -> string -> int option
val is_rowid_column : table_info -> string -> bool
val indexes_of : db -> string -> index_info list

(** {2 Statistics cache} *)

val stats_for : db -> string -> tbl_stats option
val col_stats_for : db -> string -> string -> col_stats option
val set_stats : db -> (string * tbl_stats) list -> unit

val load_stats : db -> unit
(** Rebuild the in-memory cache from the persisted stat tables (no-op
    when the database was never ANALYZEd). *)

(** {2 Open/close} *)

val open_db :
  ?vfs:Svfs.t -> ?cache_pages:int -> ?hooks:Pager.hooks ->
  ?obs:Twine_obs.Obs.t -> string -> db

val close : db -> unit
