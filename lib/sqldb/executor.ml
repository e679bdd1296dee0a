(* Executor layer: expression evaluation and the instrumented operator
   tree. Every statement runs under a [profiled] wrapper that installs a
   statement-overhead work sink; each operator node switches the sink to
   its own cell while it is active, so

     statement work = sum(operator self-work) + overhead work

   holds by construction — the zero-residue conservation law the bench
   gates at tolerance 0. Operator nodes additionally carry rows-in/out,
   loop counts and pager page read/write deltas for EXPLAIN ANALYZE. *)

open Sql_ast
open Catalog

type result = { columns : string list; rows : Value.t list list; affected : int }

let empty_result = { columns = []; rows = []; affected = 0 }

(* --- row environments for expression evaluation --- *)

(* The row a FROM source is on: [Field (i, c)] reads column [c] of
   binding [i], [Rowid i] its rowid. *)
type binding = { mutable b_values : Value.t array; mutable b_rowid : int64 }

(* [aggs]: the finished aggregates of the group being projected, read by
   [Agg] slots. *)
type env = { rows : binding array; mutable aggs : Value.t array }

(* A joined row: each binding's values and rowid. *)
let snapshot bindings = List.map (fun b -> (b.b_values, b.b_rowid)) bindings

let restore bindings row =
  List.iter2
    (fun b (values, rowid) ->
      b.b_values <- values;
      b.b_rowid <- rowid)
    bindings row

(* --- scalar functions --- *)

let scalar_function t name args =
  match (name, args) with
  | "length", [ Value.Text s ] -> Value.Int (Int64.of_int (String.length s))
  | "length", [ Value.Blob s ] -> Value.Int (Int64.of_int (String.length s))
  | "length", [ Value.Null ] -> Value.Null
  | "length", [ v ] -> Value.Int (Int64.of_int (String.length (Value.to_string v)))
  | "abs", [ Value.Int v ] -> Value.Int (Int64.abs v)
  | "abs", [ Value.Real v ] -> Value.Real (Float.abs v)
  | "abs", [ Value.Null ] -> Value.Null
  | "lower", [ v ] -> Value.Text (String.lowercase_ascii (Value.to_string v))
  | "upper", [ v ] -> Value.Text (String.uppercase_ascii (Value.to_string v))
  | "hex", [ Value.Blob s ] -> Value.Text (Twine_crypto.Hexcodec.encode s)
  | "typeof", [ v ] ->
      Value.Text
        (match v with
        | Value.Null -> "null"
        | Value.Int _ -> "integer"
        | Value.Real _ -> "real"
        | Value.Text _ -> "text"
        | Value.Blob _ -> "blob")
  | "random", [] ->
      Value.Int (Twine_crypto.Drbg.uint64 t.prng)
  | "randomblob", [ n ] ->
      let n = Int64.to_int (Value.to_int64 n) in
      Value.Blob (Twine_crypto.Drbg.generate t.prng (max 0 n))
  | "coalesce", args -> (
      match List.find_opt (fun v -> not (Value.is_null v)) args with
      | Some v -> v
      | None -> Value.Null)
  | "substr", [ s; start ] ->
      let str = Value.to_string s in
      let st = Int64.to_int (Value.to_int64 start) in
      let st = if st > 0 then st - 1 else max 0 (String.length str + st) in
      if st >= String.length str then Value.Text ""
      else Value.Text (String.sub str st (String.length str - st))
  | "substr", [ s; start; len ] ->
      let str = Value.to_string s in
      let st = Int64.to_int (Value.to_int64 start) in
      let st = if st > 0 then st - 1 else max 0 (String.length str + st) in
      let l = Int64.to_int (Value.to_int64 len) in
      if st >= String.length str || l <= 0 then Value.Text ""
      else Value.Text (String.sub str st (min l (String.length str - st)))
  | "min", (_ :: _ :: _ as vs) ->
      List.fold_left (fun a b -> if Value.compare a b <= 0 then a else b)
        (List.hd vs) (List.tl vs)
  | "max", (_ :: _ :: _ as vs) ->
      List.fold_left (fun a b -> if Value.compare a b >= 0 then a else b)
        (List.hd vs) (List.tl vs)
  | name, args -> fail "no such function %s/%d" name (List.length args)

let rec eval t env (e : expr) : Value.t =
  bump t 1;
  match e with
  | Lit v -> v
  | Star -> fail "misplaced *"
  | Bound (Field (i, c), _) -> env.rows.(i).b_values.(c)
  | Bound (Rowid i, _) -> Value.Int env.rows.(i).b_rowid
  | Bound (Agg i, _) -> env.aggs.(i)
  | Column _ | Param _ | Bound (Output _, _) -> invalid_arg "Executor.eval: unbound expression"
  | Binop (op, a, b) -> eval_binop t env op a b
  | Not a -> (
      match eval t env a with
      | Value.Null -> Value.Null
      | v -> Value.of_bool (not (Value.to_bool v)))
  | Neg a -> Value.sub (Value.Int 0L) (eval t env a)
  | Is_null (a, positive) ->
      let isn = Value.is_null (eval t env a) in
      Value.of_bool (if positive then isn else not isn)
  | Between (a, lo, hi) ->
      let v = eval t env a in
      let lo = eval t env lo and hi = eval t env hi in
      if Value.is_null v || Value.is_null lo || Value.is_null hi then Value.Null
      else Value.of_bool (Value.compare v lo >= 0 && Value.compare v hi <= 0)
  | In_list (a, es) ->
      let v = eval t env a in
      if Value.is_null v then Value.Null
      else Value.of_bool (List.exists (fun e -> Value.equal v (eval t env e)) es)
  | Like (a, p) -> (
      match (eval t env a, eval t env p) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | v, p -> Value.of_bool (Value.like ~pattern:(Value.to_string p) (Value.to_string v)))
  | Call (name, args) -> scalar_function t name (List.map (eval t env) args)
  | Case (arms, else_) -> (
      let rec go = function
        | [] -> ( match else_ with Some e -> eval t env e | None -> Value.Null)
        | (c, v) :: rest -> if Value.to_bool (eval t env c) then eval t env v else go rest
      in
      go arms)
  | Cast (a, ty) -> (
      let v = eval t env a in
      match String.uppercase_ascii ty with
      | "INTEGER" | "INT" -> Value.Int (Value.to_int64 v)
      | "REAL" -> (
          match Value.to_num v with
          | `Int i -> Value.Real (Int64.to_float i)
          | `Real f -> Value.Real f
          | `Null -> Value.Null)
      | "TEXT" -> ( match v with Value.Null -> Value.Null | _ -> Value.Text (Value.to_string v))
      | "BLOB" -> (
          match v with
          | Value.Null -> Value.Null
          | Value.Blob _ -> v
          | _ -> Value.Blob (Value.to_string v))
      | ty -> fail "cannot cast to %s" ty)

and eval_binop t env op a b =
  match op with
  | And ->
      let va = eval t env a in
      if (not (Value.is_null va)) && not (Value.to_bool va) then Value.of_bool false
      else begin
        let vb = eval t env b in
        if (not (Value.is_null vb)) && not (Value.to_bool vb) then Value.of_bool false
        else if Value.is_null va || Value.is_null vb then Value.Null
        else Value.of_bool true
      end
  | Or ->
      let va = eval t env a in
      if (not (Value.is_null va)) && Value.to_bool va then Value.of_bool true
      else begin
        let vb = eval t env b in
        if (not (Value.is_null vb)) && Value.to_bool vb then Value.of_bool true
        else if Value.is_null va || Value.is_null vb then Value.Null
        else Value.of_bool false
      end
  | _ ->
      let va = eval t env a and vb = eval t env b in
      (match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb
      | Mod -> Value.rem va vb
      | Concat -> Value.concat va vb
      | Eq | Ne | Lt | Le | Gt | Ge ->
          if Value.is_null va || Value.is_null vb then Value.Null
          else begin
            let c = Value.compare va vb in
            Value.of_bool
              (match op with
              | Eq -> c = 0
              | Ne -> c <> 0
              | Lt -> c < 0
              | Le -> c <= 0
              | Gt -> c > 0
              | Ge -> c >= 0
              | _ -> assert false)
          end
      | And | Or -> assert false)

let no_rows () = { rows = [||]; aggs = [||] }

(* A bound expression that reads no row is evaluated up front. *)
let const_value t e =
  if Planner.foldable (fun _ -> false) e then Some (eval t (no_rows ()) e) else None

(* --- row (de)coding --- *)

(* How [decode_row] fills a column: the rowid alias from the rowid, any
   other column from the next stored field. A column the statement never
   reads is left NULL, its field checked but not copied out. *)
type column_use = Read | Skip | Read_rowid | Skip_rowid

(* The uses of [ti]'s columns, column [c] read when [read c]. *)
let reader ti read =
  Array.of_list
    (List.mapi
       (fun c col ->
         match (ti.tbl_rowid_col, read c) with
         | Some pk, true when col.col_name = pk -> Read_rowid
         | Some pk, false when col.col_name = pk -> Skip_rowid
         | _, true -> Read
         | _, false -> Skip)
       ti.tbl_columns)

let read_all ti = reader ti (fun _ -> true)

(* Fill [full] from column [i] on, from the stored field at [off] of
   [payload]: once the fields run out a column stays NULL, and the fields
   no column takes are still checked. *)
let rec fill_row full uses rowid payload off i =
  if i = Array.length uses then Record.check_from payload off
  else
    match uses.(i) with
    | Read_rowid ->
        full.(i) <- Value.Int rowid;
        fill_row full uses rowid payload off (i + 1)
    | Skip_rowid -> fill_row full uses rowid payload off (i + 1)
    | (Read | Skip) as use ->
        if off < String.length payload then begin
          let next = Record.field_end payload off in
          if use = Read then full.(i) <- Record.field payload off;
          fill_row full uses rowid payload next (i + 1)
        end
        else fill_row full uses rowid payload off (i + 1)

(* Decode a stored record into the full column array: the columns [uses]
   reads, the rowid column materialised from the key. *)
let decode_row t uses rowid payload =
  bump t 2;
  let full = Array.make (Array.length uses) Value.Null in
  fill_row full uses rowid payload 0 0;
  full

let encode_row ti (values : Value.t array) =
  (* the rowid column is not stored in the payload *)
  let stored = ref [] in
  List.iteri
    (fun i c ->
      match ti.tbl_rowid_col with
      | Some pk when c.col_name = pk -> ()
      | _ -> stored := values.(i) :: !stored)
    ti.tbl_columns;
  Record.encode (List.rev !stored)

(* --- transactions --- *)

let in_auto_txn t f =
  if t.explicit_txn || Pager.in_txn t.pager then f ()
  else begin
    Pager.begin_txn t.pager;
    match f () with
    | r ->
        Pager.commit t.pager;
        r
    | exception e ->
        (try Pager.rollback t.pager with _ -> ());
        raise e
  end

(* --- operator nodes --- *)

type op = {
  o_name : string;
  o_detail : string Lazy.t;  (* rendered only for EXPLAIN *)
  o_est : int option;
  o_attr : Catalog.attr;
  o_sink : Catalog.attr option;  (* [Some o_attr] *)
  mutable o_rows_in : int;
  mutable o_rows_out : int;
  mutable o_loops : int;
  mutable o_reads : int;
  mutable o_writes : int;
  mutable o_children : op list;
}

let mk_op ?(children = []) ?est name detail =
  let attr = Catalog.new_attr () in
  { o_name = name; o_detail = detail; o_est = est; o_attr = attr; o_sink = Some attr;
    o_rows_in = 0; o_rows_out = 0; o_loops = 0; o_reads = 0; o_writes = 0;
    o_children = children }

let leave_op t op prev r0 w0 =
  t.sink <- prev;
  op.o_reads <- op.o_reads + (t.pager.Pager.stats_reads - r0);
  op.o_writes <- op.o_writes + (t.pager.Pager.stats_writes - w0)

(* Run [f] with [op]'s cell as the work sink and account the pager page
   traffic of the window to it. Nested activations (a join's inner scan
   under the outer's window) overlap in page counts but never in work:
   the sink switch is exact, the page window is a per-operator envelope. *)
let in_op t op f =
  let prev = t.sink in
  let r0 = t.pager.Pager.stats_reads and w0 = t.pager.Pager.stats_writes in
  t.sink <- op.o_sink;
  match f () with
  | r ->
      leave_op t op prev r0 w0;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave_op t op prev r0 w0;
      Printexc.raise_with_backtrace e bt

let flatten_ops root =
  let acc = ref [] in
  let rec go depth op =
    acc :=
      {
        os_depth = depth;
        os_name = op.o_name;
        os_detail = op.o_detail;
        os_est_rows = op.o_est;
        os_rows_in = op.o_rows_in;
        os_rows_out = op.o_rows_out;
        os_loops = op.o_loops;
        os_reads = op.o_reads;
        os_writes = op.o_writes;
        os_work = op.o_attr.a_work;
      }
      :: !acc;
    List.iter (go (depth + 1)) op.o_children
  in
  go 0 root;
  List.rev !acc

(* Statement wrapper: every work bump between entry and exit lands either
   in an operator cell (while one is active) or in the overhead cell, so
   the recorded profile conserves the statement's work meter delta. *)
let profiled t label f =
  let w0 = t.work in
  let overhead = Catalog.new_attr () in
  let prev = t.sink in
  t.sink <- Some overhead;
  match f () with
  | result, roots ->
      Catalog.record_profile t
        {
          pr_stmt = label;
          pr_ops = List.concat_map flatten_ops roots;
          pr_overhead_work = overhead.a_work;
          pr_total_work = t.work - w0;
        };
      t.sink <- prev;
      result
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.sink <- prev;
      Printexc.raise_with_backtrace e bt

(* --- index maintenance --- *)

let index_key ii ti values rowid =
  let parts =
    List.map
      (fun col ->
        match col_index ti col with
        | Some i -> values.(i)
        | None -> fail "index %s references missing column %s" ii.idx_name col)
      ii.idx_columns
  in
  Record.encode (parts @ [ Value.Int rowid ])

let index_prefix_key prefix = Record.encode prefix

let index_insert_row t ti values rowid =
  List.iter
    (fun ii ->
      let key = index_key ii ti values rowid in
      (if ii.idx_unique then begin
         (* a row with the same column prefix must not already exist *)
         let prefix =
           List.map
             (fun col ->
               match col_index ti col with Some i -> values.(i) | None -> Value.Null)
             ii.idx_columns
         in
         let prefix_key = index_prefix_key prefix in
         let dup = ref false in
         Btree.iter_index t.pager ~root:ii.idx_root ~start:prefix_key (fun k ->
             (match Record.decode k with
             | decoded when List.length decoded = List.length prefix + 1 ->
                 let kp = List.filteri (fun i _ -> i < List.length prefix) decoded in
                 if List.for_all2 Value.equal kp prefix then dup := true
             | _ -> ());
             false);
         if !dup && not (List.exists Value.is_null prefix) then
           fail "UNIQUE constraint failed: %s" ii.idx_name
       end);
      Btree.insert_index t.pager ~root:ii.idx_root key)
    (indexes_of t ti.tbl_name)

let index_delete_row t ti values rowid =
  List.iter
    (fun ii ->
      ignore (Btree.delete_index t.pager ~root:ii.idx_root (index_key ii ti values rowid)))
    (indexes_of t ti.tbl_name)

(* --- scanning --- *)

(* Iterate (rowid, values) of a table under a plan, applying no filter,
   each row decoded by [uses]. A probe is read through the range
   [Planner.bind_probe] gives it. *)
let scan t ti uses (plan : Planner.plan) f =
  match plan with
  | Planner.Rowid_probe _ | Planner.Index_probe _ ->
      invalid_arg "Executor.scan: unbound probe"
  | Planner.Full_scan ->
      Btree.iter_table t.pager ~root:ti.tbl_root (fun rowid payload ->
          f rowid (decode_row t uses rowid payload))
  | Planner.Rowid_range (lo, hi) ->
      Btree.iter_table t.pager ~root:ti.tbl_root
        ?min:lo ?max:hi
        (fun rowid payload -> f rowid (decode_row t uses rowid payload))
  | Planner.Index_range (ii, prefix, lo, hi) ->
      let start_vals = prefix @ (match lo with Some v -> [ v ] | None -> []) in
      let start = if start_vals = [] then None else Some (index_prefix_key start_vals) in
      Btree.iter_index t.pager ~root:ii.idx_root ?start (fun key ->
          let decoded = Record.decode key in
          let n = List.length decoded in
          let rowid =
            match List.nth decoded (n - 1) with
            | Value.Int r -> r
            | _ -> raise (Pager.Corrupt "index key without rowid")
          in
          (* check the prefix still matches / range not exceeded *)
          let cols = List.filteri (fun i _ -> i < n - 1) decoded in
          let keep, continue =
            let rec check_prefix p c =
              match (p, c) with
              | [], rest -> (Some rest, true)
              | pv :: p', cv :: c' ->
                  if Value.equal pv cv then check_prefix p' c' else (None, false)
              | _, [] -> (None, false)
            in
            match check_prefix prefix cols with
            | None, _ -> (false, false)
            | Some rest, _ -> (
                match (rest, lo, hi) with
                | v :: _, _, Some hi_v ->
                    if Value.compare v hi_v > 0 then (false, false) else (true, true)
                | v :: _, Some lo_v, None ->
                    if Value.compare v lo_v < 0 then (false, true) else (true, true)
                | _ -> (true, true))
          in
          if not continue then false
          else begin
            if keep then begin
              match Btree.lookup_table t.pager ~root:ti.tbl_root rowid with
              | Some payload -> (if not (f rowid (decode_row t uses rowid payload)) then raise Btree.Stop); true
              | None -> true
            end
            else true
          end)

(* Instrumented scan + optional filter used by UPDATE/DELETE: the scan
   operator owns decode work and page traffic, the filter operator owns
   the WHERE evaluation. *)
let scan_instr t ti plan ~scan_op ?filter_op where f =
  let binding = { b_values = [||]; b_rowid = 0L } in
  let env = { rows = [| binding |]; aggs = [||] } in
  in_op t scan_op (fun () ->
      scan_op.o_loops <- scan_op.o_loops + 1;
      scan t ti (read_all ti) plan (fun rowid values ->
          scan_op.o_rows_out <- scan_op.o_rows_out + 1;
          binding.b_values <- values;
          binding.b_rowid <- rowid;
          let keep =
            match filter_op with
            | None -> true
            | Some fo ->
                in_op t fo (fun () ->
                    fo.o_rows_in <- fo.o_rows_in + 1;
                    let k =
                      match where with
                      | None -> true
                      | Some w -> Value.to_bool (eval t env w)
                    in
                    if k then fo.o_rows_out <- fo.o_rows_out + 1;
                    k)
          in
          if keep then f rowid values else true))

(* --- INSERT --- *)

let next_rowid t ti =
  match Btree.max_rowid t.pager ~root:ti.tbl_root with
  | Some r -> Int64.add r 1L
  | None -> 1L

(* An INSERT bound to its table: the column each value goes to, and the
   rows and the column defaults as constants. *)
type bound_insert = {
  bi_name : string;  (* the table as the statement names it *)
  bi_table : table_info;
  bi_targets : int list;
  bi_rows : expr list list;
  bi_defaults : expr option list;
}

let bind_insert t ~ins_table ~ins_columns ~ins_rows =
  let ti = table t ins_table in
  let bi_targets =
    if ins_columns = [] then List.init (List.length ti.tbl_columns) (fun i -> i)
    else
      List.map
        (fun c ->
          match col_index ti c with
          | Some i -> i
          | None -> fail "table %s has no column %s" ins_table c)
        ins_columns
  in
  let constant = Resolve.bind [] None in
  { bi_name = ins_table; bi_table = ti; bi_targets;
    bi_rows = List.map (List.map constant) ins_rows;
    bi_defaults = List.map (fun c -> Option.map constant c.col_default) ti.tbl_columns }

let do_insert t b =
  let ti = b.bi_table and target_idx = b.bi_targets in
  let op = mk_op "insert" (Lazy.from_val ti.tbl_name) ~est:(List.length b.bi_rows) in
  let r =
    in_op t op (fun () ->
        op.o_loops <- 1;
        op.o_rows_in <- List.length b.bi_rows;
        let ncols = List.length ti.tbl_columns in
        let affected = ref 0 in
        let env = no_rows () in
        List.iter
          (fun row_exprs ->
            if List.length row_exprs <> List.length target_idx then
              fail "%d values for %d columns" (List.length row_exprs) (List.length target_idx);
            let values = Array.make ncols Value.Null in
            List.iter2 (fun i e -> values.(i) <- eval t env e) target_idx row_exprs;
            List.iteri
              (fun i d ->
                match d with
                | Some e when not (List.mem i target_idx) -> values.(i) <- eval t env e
                | _ -> ())
              b.bi_defaults;
            (* rowid assignment *)
            let rowid =
              match ti.tbl_rowid_col with
              | Some pk -> (
                  let i = Option.get (col_index ti pk) in
                  match values.(i) with
                  | Value.Null ->
                      let r = next_rowid t ti in
                      values.(i) <- Value.Int r;
                      r
                  | v -> Value.to_int64 v)
              | None -> next_rowid t ti
            in
            (* NOT NULL checks *)
            List.iteri
              (fun i c ->
                if c.col_not_null && Value.is_null values.(i) then
                  fail "NOT NULL constraint failed: %s.%s" b.bi_name c.col_name)
              ti.tbl_columns;
            (* primary key uniqueness *)
            (match ti.tbl_rowid_col with
            | Some _ ->
                if Btree.lookup_table t.pager ~root:ti.tbl_root rowid <> None then
                  fail "UNIQUE constraint failed: %s rowid %Ld" b.bi_name rowid
            | None -> ());
            index_insert_row t ti values rowid;
            Btree.insert_table t.pager ~root:ti.tbl_root ~rowid (encode_row ti values);
            t.last_rowid <- rowid;
            incr affected)
          b.bi_rows;
        op.o_rows_out <- !affected;
        { empty_result with affected = !affected })
  in
  (r, [ op ])

(* --- SELECT --- *)

type agg_state = {
  mutable cnt : int;
  mutable sum_i : int64;
  mutable sum_f : float;
  mutable saw_real : bool;
  mutable mn : Value.t;
  mutable mx : Value.t;
  mutable non_null : int;
}

let new_agg () =
  { cnt = 0; sum_i = 0L; sum_f = 0.; saw_real = false; mn = Value.Null;
    mx = Value.Null; non_null = 0 }

let agg_update t env state e =
  match e with
  | Call ("count", [ Star ]) | Call ("count", []) -> state.cnt <- state.cnt + 1
  | Call (name, [ arg ]) -> (
      let v = eval t env arg in
      if not (Value.is_null v) then begin
        state.non_null <- state.non_null + 1;
        (match name with
        | "count" -> ()
        | "sum" | "avg" | "total" -> (
            match Value.to_num v with
            | `Int i ->
                state.sum_i <- Int64.add state.sum_i i;
                state.sum_f <- state.sum_f +. Int64.to_float i
            | `Real f ->
                state.saw_real <- true;
                state.sum_f <- state.sum_f +. f
            | `Null -> ())
        | "min" -> if Value.is_null state.mn || Value.compare v state.mn < 0 then state.mn <- v
        | "max" -> if Value.is_null state.mx || Value.compare v state.mx > 0 then state.mx <- v
        | _ -> ())
      end)
  | _ -> ()

let rec update_aggs t env states aggs i =
  if i < Array.length states then begin
    agg_update t env states.(i) aggs.(i);
    update_aggs t env states aggs (i + 1)
  end

let agg_final e state =
  match e with
  | Call ("count", [ Star ]) | Call ("count", []) -> Value.Int (Int64.of_int state.cnt)
  | Call ("count", [ _ ]) -> Value.Int (Int64.of_int state.non_null)
  | Call ("sum", [ _ ]) ->
      if state.non_null = 0 then Value.Null
      else if state.saw_real then Value.Real state.sum_f
      else Value.Int state.sum_i
  | Call ("total", [ _ ]) -> Value.Real state.sum_f
  | Call ("avg", [ _ ]) ->
      if state.non_null = 0 then Value.Null
      else Value.Real (state.sum_f /. float_of_int state.non_null)
  | Call ("min", [ _ ]) -> state.mn
  | Call ("max", [ _ ]) -> state.mx
  | _ -> Value.Null

(* A SELECT bound to the schema by [Resolve.bind_select]: its sources,
   each with the uses of its columns, its result labels and its
   aggregate calls. *)
type bound_select = {
  bs_sources : (string * table_info * column_use array) list;
      (* alias (or table name), table, columns read *)
  bs_select : select;
  bs_labels : string list;
  bs_aggs : expr array;
}

(* Marks in [read.(i)] each column of source [i] that [e] reads. *)
let mark_read read e =
  ignore
    (for_all_sub
       (function
         | Bound (Field (i, c), _) ->
             read.(i).(c) <- true;
             true
         | _ -> true)
       e)

let bind_select t (s : select) =
  let named =
    match s.sel_from with
    | None -> []
    | Some (tbl, alias) ->
        (Option.value alias ~default:tbl, table t tbl)
        :: List.map
             (fun j -> (Option.value j.jt_alias ~default:j.jt_table, table t j.jt_table))
             s.sel_joins
  in
  let s, labels, aggs = Resolve.bind_select named s in
  let read =
    Array.of_list (List.map (fun (_, ti) -> Array.make (List.length ti.tbl_columns) false) named)
  in
  let mark = mark_read read in
  List.iter (fun (e, _) -> mark e) s.sel_exprs;
  List.iter (fun j -> Option.iter mark j.jt_on) s.sel_joins;
  Option.iter mark s.sel_where;
  List.iter mark s.sel_group;
  Option.iter mark s.sel_having;
  List.iter (fun o -> mark o.ord_expr) s.sel_order;
  Array.iter mark aggs;
  { bs_sources = List.mapi (fun i (name, ti) -> (name, ti, reader ti (Array.get read.(i)))) named;
    bs_select = s; bs_labels = labels; bs_aggs = aggs }

(* The per-SELECT context: the operator chain built before execution so
   plain EXPLAIN can render the same tree the executor runs. An
   operator's detail is rendered only when EXPLAIN reads it. *)
type sel_ctx = {
  sc_sources : (table_info * string * column_use array * Planner.plan) list;
  sc_select : select;
  sc_labels : string list;
  sc_aggs : expr array;
  sc_join_conds : expr list;
  sc_scan_ops : op list;
  sc_filter_op : op option;
  sc_agg_op : op option;
  sc_project_op : op;
  sc_sort_op : op option;
  sc_distinct_op : op option;
  sc_limit_op : op option;
  sc_root : op;
}

let scalar_detail = Lazy.from_val "scalar"
let no_detail = Lazy.from_val ""

let select_ctx t b =
  let s = b.bs_select and labels = b.bs_labels in
  let join_conds = List.filter_map (fun j -> j.jt_on) s.sel_joins in
  let clauses = join_conds @ Option.to_list s.sel_where in
  let const = const_value t in
  let sources =
    List.mapi
      (fun i (name, ti, uses) ->
        let plan, reason = Planner.plan_for t ti i ~const clauses in
        Planner.record_plan t ti plan reason;
        (ti, name, uses, plan))
      b.bs_sources
  in
  let scan_ops =
    List.map
      (fun (ti, name, _, plan) ->
        mk_op "scan" (lazy (name ^ ": " ^ Planner.describe plan))
          ?est:(Planner.estimate t ti plan))
      sources
  in
  let chain = ref scan_ops in
  let push name detail =
    let op = mk_op ~children:!chain name detail in
    chain := [ op ];
    op
  in
  let filter_op =
    if clauses <> [] then
      Some (push "filter" (lazy (String.concat " AND " (List.map Planner.render_expr clauses))))
    else None
  in
  let agg_op =
    if s.sel_group <> [] then
      Some
        (push "aggregate"
           (lazy ("group by " ^ String.concat ", " (List.map Planner.render_expr s.sel_group))))
    else if Array.length b.bs_aggs > 0 then Some (push "aggregate" scalar_detail)
    else None
  in
  let project_op = push "project" (lazy (String.concat ", " labels)) in
  let sort_op =
    if s.sel_order = [] then None
    else
      Some
        (push "sort"
           (lazy
             (String.concat ", "
                (List.map
                   (fun o ->
                     Planner.render_expr o.ord_expr ^ if o.ord_desc then " DESC" else "")
                   s.sel_order))))
  in
  let distinct_op = if s.sel_distinct then Some (push "distinct" no_detail) else None in
  let limit_op =
    if s.sel_limit <> None || s.sel_offset <> None then
      Some
        (push "limit"
           (lazy
             (String.concat " "
                ((match s.sel_limit with
                 | Some e -> [ "limit " ^ Planner.render_expr e ]
                 | None -> [])
                @
                match s.sel_offset with
                | Some e -> [ "offset " ^ Planner.render_expr e ]
                | None -> []))))
    else None
  in
  {
    sc_sources = sources;
    sc_select = s;
    sc_labels = labels;
    sc_aggs = b.bs_aggs;
    sc_join_conds = join_conds;
    sc_scan_ops = scan_ops;
    sc_filter_op = filter_op;
    sc_agg_op = agg_op;
    sc_project_op = project_op;
    sc_sort_op = sort_op;
    sc_distinct_op = distinct_op;
    sc_limit_op = limit_op;
    sc_root = List.hd !chain;
  }

let do_select t b =
  let c = select_ctx t b in
  let s = c.sc_select in
  let labels = c.sc_labels in
  let bindings = List.map (fun _ -> { b_values = [||]; b_rowid = 0L }) c.sc_sources in
  let env = { rows = Array.of_list bindings; aggs = [||] } in
  let restore = restore bindings in
  let project_row () =
    in_op t c.sc_project_op (fun () ->
        c.sc_project_op.o_rows_in <- c.sc_project_op.o_rows_in + 1;
        c.sc_project_op.o_loops <- c.sc_project_op.o_loops + 1;
        let vals = List.map (fun (e, _) -> eval t env e) s.sel_exprs in
        c.sc_project_op.o_rows_out <- c.sc_project_op.o_rows_out + 1;
        vals)
  in
  if c.sc_sources = [] then begin
    (* SELECT without FROM *)
    let vals = project_row () in
    ({ columns = labels; rows = [ vals ]; affected = 0 }, [ c.sc_root ])
  end
  else begin
    (* produce joined rows: nested loops over sources *)
    let rows = ref [] in
    let emit_row () =
      let keep =
        match c.sc_filter_op with
        | None -> true
        | Some fo ->
            in_op t fo (fun () ->
                fo.o_rows_in <- fo.o_rows_in + 1;
                let k =
                  List.for_all (fun cond -> Value.to_bool (eval t env cond)) c.sc_join_conds
                  && match s.sel_where with
                     | None -> true
                     | Some w -> Value.to_bool (eval t env w)
                in
                if k then fo.o_rows_out <- fo.o_rows_out + 1;
                k)
      in
      if keep then rows := snapshot bindings :: !rows
    in
    let rec loop srcs bnds ops =
      match (srcs, bnds, ops) with
      | [], [], [] -> emit_row ()
      | (ti, _, uses, plan) :: srest, b :: brest, op :: orest ->
          in_op t op (fun () ->
              op.o_loops <- op.o_loops + 1;
              Option.iter
                (fun path ->
                  scan t ti uses path (fun rowid values ->
                      op.o_rows_out <- op.o_rows_out + 1;
                      b.b_values <- values;
                      b.b_rowid <- rowid;
                      loop srest brest orest;
                      true))
                (Planner.bind_probe plan ~eval:(eval t env)))
      | _ -> assert false
    in
    loop c.sc_sources bindings c.sc_scan_ops;
    let materialized = List.rev !rows in
    let n_mat = List.length materialized in
    (* in aggregation, the row and aggregates that each result row's
       ORDER BY expressions read *)
    let group_ctxs = ref [] in
    let result_rows =
      match c.sc_agg_op with
      | Some agg_op ->
          in_op t agg_op (fun () ->
              agg_op.o_loops <- 1;
              agg_op.o_rows_in <- n_mat;
              let aggs = c.sc_aggs in
              (* the group's finished aggregates over its first row, then
                 HAVING and the projection *)
              let finish states =
                env.aggs <- Array.map2 agg_final aggs states;
                let having_ok =
                  match s.sel_having with
                  | None -> true
                  | Some h -> Value.to_bool (eval t env h)
                in
                if having_ok then begin
                  group_ctxs := (snapshot bindings, env.aggs) :: !group_ctxs;
                  Some (project_row ())
                end
                else None
              in
              let out =
                if s.sel_group = [] then begin
                  (* one group: every row folds into one state array *)
                  let states = Array.map (fun _ -> new_agg ()) aggs in
                  List.iter
                    (fun row ->
                      restore row;
                      update_aggs t env states aggs 0)
                    materialized;
                  (match materialized with
                  | first :: _ -> restore first
                  | [] ->
                      (* aggregate over empty input still yields one row,
                         whose columns read NULL *)
                      List.iter2
                        (fun b (ti, _, _, _) ->
                          b.b_values <- Array.make (List.length ti.tbl_columns) Value.Null)
                        bindings c.sc_sources);
                  Option.to_list (finish states)
                end
                else begin
                  let groups : (string, Value.t list * agg_state array) Hashtbl.t =
                    Hashtbl.create 16
                  in
                  let order = ref [] in
                  List.iter
                    (fun row ->
                      restore row;
                      let key_vals = List.map (fun g -> eval t env g) s.sel_group in
                      let key = Record.encode key_vals in
                      let _, states =
                        match Hashtbl.find_opt groups key with
                        | Some g -> g
                        | None ->
                            let g = (key_vals, Array.map (fun _ -> new_agg ()) aggs) in
                            Hashtbl.add groups key g;
                            order := key :: !order;
                            g
                      in
                      update_aggs t env states aggs 0)
                    materialized;
                  List.filter_map
                    (fun key ->
                      let key_vals, states = Hashtbl.find groups key in
                      (* restore a representative row for non-aggregate refs:
                         the first row of the group *)
                      (match
                         List.find_opt
                           (fun row ->
                             restore row;
                             List.map (fun g -> eval t env g) s.sel_group = key_vals)
                           materialized
                       with
                      | Some row -> restore row
                      | None -> ());
                      finish states)
                    (List.rev !order)
                end
              in
              agg_op.o_rows_out <- List.length out;
              out)
      | None ->
          List.map
            (fun row ->
              restore row;
              project_row ())
            materialized
    in
    let result_rows =
      match c.sc_sort_op with
      | None -> result_rows
      | Some sort_op ->
          in_op t sort_op (fun () ->
              sort_op.o_loops <- 1;
              sort_op.o_rows_in <- List.length result_rows;
              let ctxs =
                match c.sc_agg_op with
                | Some _ -> List.rev !group_ctxs
                | None -> List.map (fun row -> (row, [||])) materialized
              in
              let keyed =
                List.map2
                  (fun (row, aggs) vals ->
                    restore row;
                    env.aggs <- aggs;
                    let key =
                      List.map
                        (fun o ->
                          match o.ord_expr with
                          | Bound (Output i, _) -> (List.nth vals i, o.ord_desc)
                          | e -> (eval t env e, o.ord_desc))
                        s.sel_order
                    in
                    (key, vals))
                  ctxs result_rows
              in
              let cmp (ka, _) (kb, _) =
                let rec go a b =
                  match (a, b) with
                  | [], [] -> 0
                  | (va, desc) :: ra, (vb, _) :: rb ->
                      let cv = Value.compare va vb in
                      let cv = if desc then -cv else cv in
                      if cv <> 0 then cv else go ra rb
                  | _ -> 0
                in
                go ka kb
              in
              let out = List.map snd (List.stable_sort cmp keyed) in
              sort_op.o_rows_out <- List.length out;
              out)
    in
    let result_rows =
      match c.sc_distinct_op with
      | None -> result_rows
      | Some dop ->
          in_op t dop (fun () ->
              dop.o_loops <- 1;
              dop.o_rows_in <- List.length result_rows;
              let seen = Hashtbl.create 16 in
              let out =
                List.filter
                  (fun vals ->
                    let k = Record.encode vals in
                    if Hashtbl.mem seen k then false
                    else begin
                      Hashtbl.add seen k ();
                      true
                    end)
                  result_rows
              in
              dop.o_rows_out <- List.length out;
              out)
    in
    let result_rows =
      match c.sc_limit_op with
      | None -> result_rows
      | Some lop ->
          in_op t lop (fun () ->
              lop.o_loops <- 1;
              lop.o_rows_in <- List.length result_rows;
              let off =
                match s.sel_offset with
                | Some e -> Int64.to_int (Value.to_int64 (eval t env e))
                | None -> 0
              in
              let lim =
                match s.sel_limit with
                | Some e -> Int64.to_int (Value.to_int64 (eval t env e))
                | None -> max_int
              in
              let out = List.filteri (fun i _ -> i >= off && i < off + lim) result_rows in
              lop.o_rows_out <- List.length out;
              out)
    in
    ({ columns = labels; rows = result_rows; affected = 0 }, [ c.sc_root ])
  end

(* --- UPDATE / DELETE --- *)

(* An UPDATE or DELETE bound to its table: the columns it sets (none for
   a DELETE), each with its value, and its WHERE. *)
type bound_mutation = {
  bm_table : table_info;
  bm_sets : (int * expr) list;
  bm_where : expr option;
}

let bind_mutation t tbl sets where =
  let ti = table t tbl in
  let bind = Resolve.bind [ (ti.tbl_name, ti) ] None in
  let bm_where = Option.map bind where in
  let bm_sets =
    List.map
      (fun (col, e) ->
        match col_index ti col with
        | Some i -> (i, bind e)
        | None -> fail "no such column %s" col)
      sets
  in
  { bm_table = ti; bm_sets; bm_where }

(* scan (+ filter) feeding a mutation operator; the mutation op owns the
   SET evaluation and the B-tree/index write work. [where] is bound. *)
let mutation_tree t ti name where =
  let plan, reason = Planner.plan_for t ti 0 ~const:(const_value t) (Option.to_list where) in
  Planner.record_plan t ti plan reason;
  let scan_op =
    mk_op "scan" (lazy (ti.tbl_name ^ ": " ^ Planner.describe plan))
      ?est:(Planner.estimate t ti plan)
  in
  let filter_op =
    match where with
    | None -> None
    | Some w -> Some (mk_op ~children:[ scan_op ] "filter" (lazy (Planner.render_expr w)))
  in
  let feed = match filter_op with Some fo -> fo | None -> scan_op in
  let top = mk_op ~children:[ feed ] name (Lazy.from_val ti.tbl_name) in
  (plan, scan_op, filter_op, top)

let do_update t { bm_table = ti; bm_sets = set_idx; bm_where = upd_where } =
  let plan, scan_op, filter_op, upd_op = mutation_tree t ti "update" upd_where in
  let victims = ref [] in
  scan_instr t ti plan ~scan_op ?filter_op upd_where (fun rowid values ->
      victims := (rowid, values) :: !victims;
      true);
  let r =
    in_op t upd_op (fun () ->
        upd_op.o_loops <- 1;
        upd_op.o_rows_in <- List.length !victims;
        let binding = { b_values = [||]; b_rowid = 0L } in
        let env = { rows = [| binding |]; aggs = [||] } in
        List.iter
          (fun (rowid, values) ->
            binding.b_values <- values;
            binding.b_rowid <- rowid;
            let updated = Array.copy values in
            List.iter (fun (i, e) -> updated.(i) <- eval t env e) set_idx;
            (* rowid change unsupported (as in our Speedtest1 workloads) *)
            index_delete_row t ti values rowid;
            index_insert_row t ti updated rowid;
            Btree.insert_table t.pager ~root:ti.tbl_root ~rowid (encode_row ti updated))
          (List.rev !victims);
        upd_op.o_rows_out <- List.length !victims;
        { empty_result with affected = List.length !victims })
  in
  (r, [ upd_op ])

let do_delete t { bm_table = ti; bm_where = del_where; _ } =
  let plan, scan_op, filter_op, del_op = mutation_tree t ti "delete" del_where in
  let victims = ref [] in
  scan_instr t ti plan ~scan_op ?filter_op del_where (fun rowid values ->
      victims := (rowid, values) :: !victims;
      true);
  let r =
    in_op t del_op (fun () ->
        del_op.o_loops <- 1;
        del_op.o_rows_in <- List.length !victims;
        List.iter
          (fun (rowid, values) ->
            index_delete_row t ti values rowid;
            ignore (Btree.delete_table t.pager ~root:ti.tbl_root rowid))
          !victims;
        del_op.o_rows_out <- List.length !victims;
        { empty_result with affected = List.length !victims })
  in
  (r, [ del_op ])

(* --- DDL --- *)

(* A leaf operator wrapping a whole simple statement body. *)
let simple_op t name detail f =
  let op = mk_op name (Lazy.from_val detail) in
  let r =
    in_op t op (fun () ->
        op.o_loops <- 1;
        f ())
  in
  (r, [ op ])

let do_create_table t ~ct_name ~ct_if_not_exists ~ct_columns =
  let name = String.lowercase_ascii ct_name in
  if Hashtbl.mem t.tables name then begin
    if ct_if_not_exists then empty_result else fail "table %s already exists" ct_name
  end
  else begin
    let root = Btree.create t.pager Btree.Table in
    Hashtbl.replace t.tables name
      {
        tbl_name = name;
        tbl_root = root;
        tbl_columns = ct_columns;
        tbl_rowid_col = rowid_col_of ct_columns;
      };
    save_catalog t;
    empty_result
  end

let do_create_index t ~ci_name ~ci_table ~ci_columns ~ci_unique ~ci_if_not_exists =
  let name = String.lowercase_ascii ci_name in
  if Hashtbl.mem t.indexes name then begin
    if ci_if_not_exists then empty_result else fail "index %s already exists" ci_name
  end
  else begin
    let ti = table t ci_table in
    List.iter
      (fun col ->
        if col_index ti col = None then fail "table %s has no column %s" ci_table col)
      ci_columns;
    let root = Btree.create t.pager Btree.Index in
    let ii =
      {
        idx_name = name;
        idx_table = String.lowercase_ascii ci_table;
        idx_columns = ci_columns;
        idx_unique = ci_unique;
        idx_root = root;
      }
    in
    Hashtbl.replace t.indexes name ii;
    (* populate from existing rows *)
    let uses = read_all ti in
    Btree.iter_table t.pager ~root:ti.tbl_root (fun rowid payload ->
        let values = decode_row t uses rowid payload in
        Btree.insert_index t.pager ~root (index_key ii ti values rowid);
        true);
    save_catalog t;
    empty_result
  end

let do_drop_table t ~dt_name ~dt_if_exists =
  let name = String.lowercase_ascii dt_name in
  match Hashtbl.find_opt t.tables name with
  | None -> if dt_if_exists then empty_result else fail "no such table: %s" dt_name
  | Some ti ->
      List.iter (fun p -> Pager.free t.pager p) (Btree.pages t.pager ~root:ti.tbl_root);
      List.iter
        (fun ii ->
          List.iter (fun p -> Pager.free t.pager p) (Btree.pages t.pager ~root:ii.idx_root);
          Hashtbl.remove t.indexes ii.idx_name)
        (indexes_of t name);
      Hashtbl.remove t.tables name;
      save_catalog t;
      empty_result

let do_drop_index t ~di_name ~di_if_exists =
  let name = String.lowercase_ascii di_name in
  match Hashtbl.find_opt t.indexes name with
  | None -> if di_if_exists then empty_result else fail "no such index: %s" di_name
  | Some ii ->
      List.iter (fun p -> Pager.free t.pager p) (Btree.pages t.pager ~root:ii.idx_root);
      Hashtbl.remove t.indexes name;
      save_catalog t;
      empty_result

(* --- ANALYZE --- *)

let hist_buckets = 10

let stat_text_col cname =
  { col_name = cname; col_type = "TEXT"; col_pk = false; col_not_null = false;
    col_default = None }

let stat_int_col cname =
  { col_name = cname; col_type = "INTEGER"; col_pk = false; col_not_null = false;
    col_default = None }

let stat_any_col cname =
  { col_name = cname; col_type = ""; col_pk = false; col_not_null = false;
    col_default = None }

let ensure_stat_table t name cols =
  if not (Hashtbl.mem t.tables name) then
    ignore (do_create_table t ~ct_name:name ~ct_if_not_exists:true ~ct_columns:cols)

let clear_table t (ti : table_info) =
  let old = ref [] in
  Btree.iter_table t.pager ~root:ti.tbl_root (fun rowid _ ->
      old := rowid :: !old;
      true);
  List.iter (fun r -> ignore (Btree.delete_table t.pager ~root:ti.tbl_root r)) !old

(* Equi-depth histogram over the sorted non-NULL values: ceil(n/B)-deep
   buckets of (lo, hi, count); bounds are non-decreasing across buckets
   and the counts sum to n exactly. *)
let equi_depth_hist sorted =
  let n = Array.length sorted in
  if n = 0 then [||]
  else begin
    let b = min hist_buckets n in
    let depth = (n + b - 1) / b in
    let buckets = ref [] in
    let i = ref 0 in
    while !i < n do
      let j = min (n - 1) (!i + depth - 1) in
      buckets := (sorted.(!i), sorted.(j), j - !i + 1) :: !buckets;
      i := j + 1
    done;
    Array.of_list (List.rev !buckets)
  end

(* ANALYZE: row counts into stat1 (paper's test 990, schema and contents
   unchanged), plus per-column distinct/null counts into stat_col and
   equi-depth histograms into stat_hist — the planner's selectivity
   substrate. The in-memory stats cache is refreshed in the same pass. *)
let do_analyze t =
  ensure_stat_table t "stat1"
    [ stat_text_col "tbl"; stat_text_col "idx"; stat_int_col "stat" ];
  ensure_stat_table t "stat_col"
    [ stat_text_col "tbl"; stat_text_col "col"; stat_int_col "ndistinct";
      stat_int_col "nnull" ];
  ensure_stat_table t "stat_hist"
    [ stat_text_col "tbl"; stat_text_col "col"; stat_int_col "bucket";
      stat_any_col "lo"; stat_any_col "hi"; stat_int_col "cnt" ];
  let stat1 = table t "stat1" in
  let stat_col = table t "stat_col" in
  let stat_hist = table t "stat_hist" in
  clear_table t stat1;
  clear_table t stat_col;
  clear_table t stat_hist;
  let seq1 = ref 0L and seqc = ref 0L and seqh = ref 0L in
  let put (ti : table_info) seq values =
    seq := Int64.add !seq 1L;
    Btree.insert_table t.pager ~root:ti.tbl_root ~rowid:!seq (Record.encode values)
  in
  let targets =
    List.sort compare
      (Hashtbl.fold
         (fun name _ acc -> if is_stat_table name then acc else name :: acc)
         t.tables [])
  in
  let root_op = mk_op "analyze" no_detail in
  let stats = ref [] in
  let run_table name =
    let ti = table t name in
    let op = mk_op "analyze" (Lazy.from_val name) in
    root_op.o_children <- root_op.o_children @ [ op ];
    in_op t op (fun () ->
        op.o_loops <- 1;
        (* decode every row once: row count + per-column values *)
        let rows = ref [] in
        let uses = read_all ti in
        Btree.iter_table t.pager ~root:ti.tbl_root (fun rowid payload ->
            rows := decode_row t uses rowid payload :: !rows;
            true);
        let rows = List.rev !rows in
        let count = List.length rows in
        op.o_rows_in <- count;
        put stat1 seq1 [ Value.Text name; Value.Null; Value.Int (Int64.of_int count) ];
        List.iter
          (fun ii ->
            let n = ref 0 in
            Btree.iter_index t.pager ~root:ii.idx_root (fun _ ->
                incr n;
                true);
            put stat1 seq1
              [ Value.Text name; Value.Text ii.idx_name; Value.Int (Int64.of_int !n) ])
          (indexes_of t name);
        (* per-column statistics *)
        let ts_cols =
          List.mapi
            (fun i c ->
              let non_null =
                List.filter_map
                  (fun values ->
                    if Value.is_null values.(i) then None else Some values.(i))
                  rows
              in
              let sorted = Array.of_list non_null in
              Array.sort Value.compare sorted;
              let nn = count - Array.length sorted in
              let nd =
                let d = ref 0 in
                Array.iteri
                  (fun j v ->
                    if j = 0 || Value.compare sorted.(j - 1) v <> 0 then incr d)
                  sorted;
                !d
              in
              let hist = equi_depth_hist sorted in
              put stat_col seqc
                [ Value.Text name; Value.Text c.col_name;
                  Value.Int (Int64.of_int nd); Value.Int (Int64.of_int nn) ];
              Array.iteri
                (fun b (lo, hi, cnt) ->
                  put stat_hist seqh
                    [ Value.Text name; Value.Text c.col_name;
                      Value.Int (Int64.of_int b); lo; hi;
                      Value.Int (Int64.of_int cnt) ])
                hist;
              ( String.lowercase_ascii c.col_name,
                { cs_distinct = nd; cs_nulls = nn; cs_hist = hist } ))
            ti.tbl_columns
        in
        op.o_rows_out <- count;
        stats := (String.lowercase_ascii name, { ts_rows = count; ts_cols }) :: !stats)
  in
  List.iter run_table targets;
  set_stats t (List.rev !stats);
  (empty_result, [ root_op ])

(* VACUUM: rebuild every tree compactly. *)
let do_vacuum t =
  Hashtbl.iter
    (fun _ (ti : table_info) ->
      let entries = ref [] in
      Btree.iter_table t.pager ~root:ti.tbl_root (fun r p ->
          entries := (r, p) :: !entries;
          true);
      let old_pages = Btree.pages t.pager ~root:ti.tbl_root in
      let fresh = Btree.create t.pager Btree.Table in
      List.iter
        (fun (r, p) -> Btree.insert_table t.pager ~root:fresh ~rowid:r p)
        (List.rev !entries);
      List.iter (fun p -> Pager.free t.pager p) old_pages;
      ti.tbl_root <- fresh)
    t.tables;
  Hashtbl.iter
    (fun _ (ii : index_info) ->
      let keys = ref [] in
      Btree.iter_index t.pager ~root:ii.idx_root (fun k ->
          keys := k :: !keys;
          true);
      let old_pages = Btree.pages t.pager ~root:ii.idx_root in
      let fresh = Btree.create t.pager Btree.Index in
      List.iter (fun k -> Btree.insert_index t.pager ~root:fresh k) (List.rev !keys);
      List.iter (fun p -> Pager.free t.pager p) old_pages;
      ii.idx_root <- fresh)
    t.indexes;
  save_catalog t;
  empty_result

(* --- PRAGMA --- *)

let do_pragma t name value =
  match (name, value) with
  | "cache_size", Some v ->
      Pager.set_cache_pages t.pager (Int64.to_int (Value.to_int64 v));
      empty_result
  | "cache_size", None ->
      { columns = [ "cache_size" ]; rows = [ [ Value.Int 0L ] ]; affected = 0 }
  | "page_count", None ->
      { columns = [ "page_count" ];
        rows = [ [ Value.Int (Int64.of_int (Pager.n_pages t.pager)) ] ];
        affected = 0 }
  | "page_size", None ->
      { columns = [ "page_size" ];
        rows = [ [ Value.Int (Int64.of_int Pager.page_size) ] ];
        affected = 0 }
  | _ -> empty_result  (* unknown pragmas are silently ignored, as SQLite *)

(* --- EXPLAIN --- *)

let rec stmt_label = function
  | Select s -> (
      match s.sel_from with
      | Some (tbl, _) -> Printf.sprintf "select(%s)" (String.lowercase_ascii tbl)
      | None -> "select")
  | Insert { ins_table; _ } -> Printf.sprintf "insert(%s)" (String.lowercase_ascii ins_table)
  | Update { upd_table; _ } -> Printf.sprintf "update(%s)" (String.lowercase_ascii upd_table)
  | Delete { del_table; _ } -> Printf.sprintf "delete(%s)" (String.lowercase_ascii del_table)
  | Create_table { ct_name; _ } -> Printf.sprintf "create_table(%s)" (String.lowercase_ascii ct_name)
  | Create_index { ci_name; _ } -> Printf.sprintf "create_index(%s)" (String.lowercase_ascii ci_name)
  | Drop_table { dt_name; _ } -> Printf.sprintf "drop_table(%s)" (String.lowercase_ascii dt_name)
  | Drop_index { di_name; _ } -> Printf.sprintf "drop_index(%s)" (String.lowercase_ascii di_name)
  | Begin -> "begin"
  | Commit -> "commit"
  | Rollback -> "rollback"
  | Pragma (n, _) -> Printf.sprintf "pragma(%s)" n
  | Analyze -> "analyze"
  | Vacuum -> "vacuum"
  | Explain { ex_stmt; _ } -> Printf.sprintf "explain(%s)" (stmt_label ex_stmt)

let est_str = function Some n -> string_of_int n | None -> "-"

let render_est_lines ops =
  List.map
    (fun os ->
      Printf.sprintf "%s%s(%s) est=%s"
        (String.make (2 * os.os_depth) ' ')
        os.os_name (Lazy.force os.os_detail) (est_str os.os_est_rows))
    ops

(* EXPLAIN ANALYZE rendering: one line per operator with estimates next
   to actuals, plus a statement summary line. With a calibration hint
   installed (Db.set_ns_per_work) a cycles column is appended. *)
let render_profile t (p : Catalog.profile) =
  let ns w = int_of_float (Float.round (float_of_int w *. t.ns_hint)) in
  let lines =
    List.map
      (fun os ->
        let base =
          Printf.sprintf "%s%s(%s) est=%s in=%d out=%d loops=%d pages=%dr/%dw work=%d"
            (String.make (2 * os.os_depth) ' ')
            os.os_name (Lazy.force os.os_detail) (est_str os.os_est_rows) os.os_rows_in
            os.os_rows_out os.os_loops os.os_reads os.os_writes os.os_work
        in
        if t.ns_hint > 0. then base ^ Printf.sprintf " cycles=%dns" (ns os.os_work)
        else base)
      p.pr_ops
  in
  let summary =
    let base =
      Printf.sprintf "total work=%d overhead=%d" p.pr_total_work p.pr_overhead_work
    in
    if t.ns_hint > 0. then
      base ^ Printf.sprintf " cycles=%dns" (ns p.pr_total_work)
    else base
  in
  lines @ [ summary ]

let plan_result lines =
  { columns = [ "plan" ]; rows = List.map (fun l -> [ Value.Text l ]) lines;
    affected = 0 }

(* --- binding --- *)

(* A statement bound to the schema, with the label its profiles carry.
   DDL, transactions, PRAGMA, ANALYZE and VACUUM name no columns and run
   from their syntax. *)
type bound_stmt = { label : string; bound : bound }

and bound =
  | Select_b of bound_select
  | Insert_b of bound_insert
  | Update_b of bound_mutation
  | Delete_b of bound_mutation
  | Explain_b of bool * bound_stmt  (* ANALYZE?, the statement explained *)
  | Unbound of stmt

let rec bind t stmt =
  let bound =
    match stmt with
    | Select s -> Select_b (bind_select t s)
    | Insert { ins_table; ins_columns; ins_rows } ->
        Insert_b (bind_insert t ~ins_table ~ins_columns ~ins_rows)
    | Update { upd_table; upd_sets; upd_where } ->
        Update_b (bind_mutation t upd_table upd_sets upd_where)
    | Delete { del_table; del_where } -> Delete_b (bind_mutation t del_table [] del_where)
    | Explain { ex_stmt = Explain _; _ } -> fail "cannot EXPLAIN an EXPLAIN"
    | Explain { ex_analyze; ex_stmt } -> Explain_b (ex_analyze, bind t ex_stmt)
    | s -> Unbound s
  in
  { label = stmt_label stmt; bound }

(* [l] with [f] applied to each element; [l] itself when [f] returns
   each element unchanged. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_shared f rest in
      if x' == x && rest' == rest then l else x' :: rest'

let map_opt f o =
  match o with
  | None -> o
  | Some x ->
      let x' = f x in
      if x' == x then o else Some x'

(* [b] with its parameters set to [values]: only the paths down to them
   are copied. *)
let rec subst_binding values b =
  let e = subst values in
  let bound =
    match b.bound with
    | Select_b bs ->
        let s = bs.bs_select in
        let pair ((x, a) as item) =
          let x' = e x in
          if x' == x then item else (x', a)
        in
        let join j =
          let on = map_opt e j.jt_on in
          if on == j.jt_on then j else { j with jt_on = on }
        in
        let order o =
          let x = e o.ord_expr in
          if x == o.ord_expr then o else { o with ord_expr = x }
        in
        Select_b
          { bs with
            bs_select =
              { s with
                sel_exprs = map_shared pair s.sel_exprs;
                sel_joins = map_shared join s.sel_joins;
                sel_where = map_opt e s.sel_where;
                sel_group = map_shared e s.sel_group;
                sel_having = map_opt e s.sel_having;
                sel_order = map_shared order s.sel_order;
                sel_limit = map_opt e s.sel_limit;
                sel_offset = map_opt e s.sel_offset };
            bs_aggs = Array.map e bs.bs_aggs }
    | Insert_b bi -> Insert_b { bi with bi_rows = map_shared (map_shared e) bi.bi_rows }
    | Update_b bm ->
        let set ((i, x) as s) =
          let x' = e x in
          if x' == x then s else (i, x')
        in
        Update_b
          { bm with bm_sets = map_shared set bm.bm_sets; bm_where = map_opt e bm.bm_where }
    | Delete_b bm -> Delete_b { bm with bm_where = map_opt e bm.bm_where }
    | Explain_b (analyze, inner) -> Explain_b (analyze, subst_binding values inner)
    | Unbound _ as u -> u
  in
  { b with bound }

(* --- EXPLAIN --- *)

(* The operator tree a statement would run, without executing it —
   shares [select_ctx]/[mutation_tree] with the executor so EXPLAIN
   renders exactly the tree EXPLAIN ANALYZE measures. *)
let plan_tree t bound =
  let op name detail = [ mk_op name (Lazy.from_val detail) ] in
  match bound with
  | Select_b b -> [ (select_ctx t b).sc_root ]
  | Insert_b b ->
      [ mk_op "insert" (Lazy.from_val b.bi_table.tbl_name) ~est:(List.length b.bi_rows) ]
  | Update_b m ->
      let _, _, _, top = mutation_tree t m.bm_table "update" m.bm_where in
      [ top ]
  | Delete_b m ->
      let _, _, _, top = mutation_tree t m.bm_table "delete" m.bm_where in
      [ top ]
  | Explain_b _ -> fail "cannot EXPLAIN an EXPLAIN"
  | Unbound stmt -> (
      match stmt with
      | Create_table { ct_name; _ } -> op "create_table" (String.lowercase_ascii ct_name)
      | Create_index { ci_name; _ } -> op "create_index" (String.lowercase_ascii ci_name)
      | Drop_table { dt_name; _ } -> op "drop_table" (String.lowercase_ascii dt_name)
      | Drop_index { di_name; _ } -> op "drop_index" (String.lowercase_ascii di_name)
      | Begin -> op "txn" "begin"
      | Commit -> op "txn" "commit"
      | Rollback -> op "txn" "rollback"
      | Pragma (n, _) -> op "pragma" n
      | Analyze -> op "analyze" ""
      | Vacuum -> op "vacuum" ""
      | Select _ | Insert _ | Update _ | Delete _ | Explain _ -> assert false)

(* --- statement dispatch --- *)

let run_unbound t label stmt =
  match stmt with
  | Create_table { ct_name; ct_if_not_exists; ct_columns } ->
      profiled t label (fun () ->
          simple_op t "create_table" (String.lowercase_ascii ct_name) (fun () ->
              in_auto_txn t (fun () ->
                  do_create_table t ~ct_name ~ct_if_not_exists ~ct_columns)))
  | Create_index { ci_name; ci_table; ci_columns; ci_unique; ci_if_not_exists } ->
      profiled t label (fun () ->
          simple_op t "create_index" (String.lowercase_ascii ci_name) (fun () ->
              in_auto_txn t (fun () ->
                  do_create_index t ~ci_name ~ci_table ~ci_columns ~ci_unique
                    ~ci_if_not_exists)))
  | Drop_table { dt_name; dt_if_exists } ->
      profiled t label (fun () ->
          simple_op t "drop_table" (String.lowercase_ascii dt_name) (fun () ->
              in_auto_txn t (fun () -> do_drop_table t ~dt_name ~dt_if_exists)))
  | Drop_index { di_name; di_if_exists } ->
      profiled t label (fun () ->
          simple_op t "drop_index" (String.lowercase_ascii di_name) (fun () ->
              in_auto_txn t (fun () -> do_drop_index t ~di_name ~di_if_exists)))
  | Begin ->
      profiled t label (fun () ->
          simple_op t "txn" "begin" (fun () ->
              if t.explicit_txn then fail "already in a transaction";
              Pager.begin_txn t.pager;
              t.explicit_txn <- true;
              empty_result))
  | Commit ->
      profiled t label (fun () ->
          simple_op t "txn" "commit" (fun () ->
              if not t.explicit_txn then fail "no transaction is active";
              Pager.commit t.pager;
              t.explicit_txn <- false;
              empty_result))
  | Rollback ->
      profiled t label (fun () ->
          simple_op t "txn" "rollback" (fun () ->
              if not t.explicit_txn then fail "no transaction is active";
              Pager.rollback t.pager;
              t.explicit_txn <- false;
              (* in-memory catalog may be stale after rollback *)
              Hashtbl.reset t.tables;
              Hashtbl.reset t.indexes;
              load_catalog t;
              load_stats t;
              empty_result))
  | Pragma (name, v) ->
      profiled t label (fun () -> simple_op t "pragma" name (fun () -> do_pragma t name v))
  | Analyze -> profiled t label (fun () -> in_auto_txn t (fun () -> do_analyze t))
  | Vacuum ->
      profiled t label (fun () ->
          simple_op t "vacuum" "" (fun () -> in_auto_txn t (fun () -> do_vacuum t)))
  | Select _ | Insert _ | Update _ | Delete _ | Explain _ -> assert false

let rec run t { label; bound } =
  match bound with
  | Select_b b -> profiled t label (fun () -> do_select t b)
  | Insert_b b -> profiled t label (fun () -> in_auto_txn t (fun () -> do_insert t b))
  | Update_b m -> profiled t label (fun () -> in_auto_txn t (fun () -> do_update t m))
  | Delete_b m -> profiled t label (fun () -> in_auto_txn t (fun () -> do_delete t m))
  | Explain_b (true, inner) -> (
      ignore (run t inner);
      match Catalog.last_profile t with
      | Some p -> plan_result (render_profile t p)
      | None -> empty_result)
  | Explain_b (false, inner) ->
      profiled t label (fun () ->
          let roots = plan_tree t inner.bound in
          let lines = render_est_lines (List.concat_map flatten_ops roots) in
          (plan_result lines, roots))
  | Unbound stmt -> run_unbound t label stmt

(* --- prepared statements --- *)

type prepared = {
  p_db : Catalog.db;
  p_stmt : stmt;
  p_params : int;
  mutable p_binding : (int * bound_stmt) option;  (* with the schema version bound at *)
}

let prepare t stmt ~params = { p_db = t; p_stmt = stmt; p_params = params; p_binding = None }

(* Binds at the first step and again whenever the schema has moved, as
   SQLite re-prepares a statement on SQLITE_SCHEMA; then runs the
   binding with [values] for its parameters. *)
let step p values =
  if Array.length values <> p.p_params then
    fail "statement has %d parameter(s), %d value(s) bound" p.p_params (Array.length values);
  let t = p.p_db in
  let b =
    match p.p_binding with
    | Some (version, b) when version = t.schema_version -> b
    | _ ->
        let b = bind t p.p_stmt in
        p.p_binding <- Some (t.schema_version, b);
        b
  in
  run t (if p.p_params = 0 then b else subst_binding values b)
