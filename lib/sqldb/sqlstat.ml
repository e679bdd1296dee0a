(* pg_stat_statements for the embedded engine: a registry keyed by
   normalized query fingerprint, accumulating execution counts, row and
   work totals, pager I/O, cycle totals and a mergeable latency sketch.
   Registries are per-enclave in the serving fleet and merge into a
   fleet view; the canonical JSON export (twine-sqlstats/v1) is sorted
   and mode-independent, so retained and streaming serve runs produce
   byte-identical artifacts. *)

(* Fingerprint normalization: literals and [?] parameters collapse to
   "?", keywords render uppercase (the tokenizer already uppercases
   them), identifiers lowercase, tokens joined by single spaces. Two
   statements differing only in constants share a fingerprint, and so
   does a prepared statement with the text it was prepared from. NULL
   is a literal too, as pg_stat_statements reads it, except in IS
   [NOT] NULL and the NOT NULL constraint. *)
let fingerprint sql =
  let rec parts prev = function
    | [] | Token.Eof :: _ -> []
    | tok :: rest ->
        let part =
          match (tok, prev) with
          | Token.Ident s, _ -> String.lowercase_ascii s
          | Token.Keyword "NULL", Token.Keyword ("IS" | "NOT") -> "NULL"
          | (Token.Int_lit _ | Token.Float_lit _ | Token.String_lit _ | Token.Blob_lit _), _
          | Token.Keyword "NULL", _ ->
              "?"
          | Token.Keyword k, _ -> k
          | Token.Punct p, _ -> p
          | Token.Eof, _ -> ""
        in
        part :: parts tok rest
  in
  String.concat " " (parts Token.Eof (Token.tokenize sql))

type entry = {
  sq_fingerprint : string;
  sq_label : string;  (* first-seen label, e.g. the workload kind *)
  mutable sq_count : int;
  mutable sq_rows : int;
  mutable sq_work : int;
  mutable sq_reads : int;
  mutable sq_writes : int;
  mutable sq_exec_ns : int;
  mutable sq_pager_ns : int;
  mutable sq_latency : Twine_obs.Sketch.t;
}

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 16 }

let find_or_add t ~fingerprint ~label =
  match Hashtbl.find_opt t.entries fingerprint with
  | Some e -> e
  | None ->
      let e =
        { sq_fingerprint = fingerprint; sq_label = label; sq_count = 0;
          sq_rows = 0; sq_work = 0; sq_reads = 0; sq_writes = 0;
          sq_exec_ns = 0; sq_pager_ns = 0;
          sq_latency = Twine_obs.Sketch.create () }
      in
      Hashtbl.replace t.entries fingerprint e;
      e

let record t ?(label = "") ~fingerprint ~rows ~work ~reads ~writes ~exec_ns
    ~pager_ns ~latency_ns () =
  let e = find_or_add t ~fingerprint ~label in
  e.sq_count <- e.sq_count + 1;
  e.sq_rows <- e.sq_rows + rows;
  e.sq_work <- e.sq_work + work;
  e.sq_reads <- e.sq_reads + reads;
  e.sq_writes <- e.sq_writes + writes;
  e.sq_exec_ns <- e.sq_exec_ns + exec_ns;
  e.sq_pager_ns <- e.sq_pager_ns + pager_ns;
  Twine_obs.Sketch.insert e.sq_latency (max 0 latency_ns)

let entries t =
  List.sort
    (fun a b -> compare a.sq_fingerprint b.sq_fingerprint)
    (Hashtbl.fold (fun _ e acc -> e :: acc) t.entries [])

(* Pure merge: the label of the first (sorted) occurrence wins, sketches
   merge bit-identically (Sketch.merge is associative/commutative). *)
let merge a b =
  let out = create () in
  let fold src =
    List.iter
      (fun e ->
        match Hashtbl.find_opt out.entries e.sq_fingerprint with
        | None ->
            Hashtbl.replace out.entries e.sq_fingerprint
              { e with sq_latency = Twine_obs.Sketch.merge e.sq_latency (Twine_obs.Sketch.create ()) }
        | Some acc ->
            acc.sq_count <- acc.sq_count + e.sq_count;
            acc.sq_rows <- acc.sq_rows + e.sq_rows;
            acc.sq_work <- acc.sq_work + e.sq_work;
            acc.sq_reads <- acc.sq_reads + e.sq_reads;
            acc.sq_writes <- acc.sq_writes + e.sq_writes;
            acc.sq_exec_ns <- acc.sq_exec_ns + e.sq_exec_ns;
            acc.sq_pager_ns <- acc.sq_pager_ns + e.sq_pager_ns;
            acc.sq_latency <- Twine_obs.Sketch.merge acc.sq_latency e.sq_latency)
      (entries src)
  in
  fold a;
  fold b;
  out

let quantile_ns e q =
  Option.value (Twine_obs.Sketch.quantile e.sq_latency q) ~default:0

let entry_to_json e =
  let num i = Twine_obs.Json.Num (float_of_int i) in
  Twine_obs.Json.Obj
    [
      ("fingerprint", Twine_obs.Json.Str e.sq_fingerprint);
      ("label", Twine_obs.Json.Str e.sq_label);
      ("count", num e.sq_count);
      ("rows", num e.sq_rows);
      ("work", num e.sq_work);
      ("page_reads", num e.sq_reads);
      ("page_writes", num e.sq_writes);
      ("exec_ns", num e.sq_exec_ns);
      ("pager_ns", num e.sq_pager_ns);
      ("p50_ns", num (quantile_ns e 0.5));
      ("p99_ns", num (quantile_ns e 0.99));
      ("latency", Twine_obs.Sketch.to_json e.sq_latency);
    ]

let to_json t = Twine_obs.Json.Arr (List.map entry_to_json (entries t))
