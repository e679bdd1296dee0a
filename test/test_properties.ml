(* Cross-module property tests: model-based checking of the storage
   engine, crash-recovery injection, cache-size invariance of the
   protected file system, and equivalence of the two Wasm engines on
   generated modules. These target the invariants the paper's evaluation rests on:
   whatever the cost model does, results must not change. *)

open Twine_sqldb

let qc = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* B-tree vs Map: random interleavings of insert/replace/delete/range  *)
(* ------------------------------------------------------------------ *)

module I64Map = Map.Make (Int64)

let prop_btree_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (5, map2 (fun k v -> `Insert (Int64.of_int k, Printf.sprintf "v%d" v))
                 (int_range 0 400) small_nat);
          (2, map (fun k -> `Delete (Int64.of_int k)) (int_range 0 400));
          (2, map (fun k -> `Lookup (Int64.of_int k)) (int_range 0 400));
          (1, map2 (fun a b -> `Range (Int64.of_int (min a b), Int64.of_int (max a b)))
                 (int_range 0 400) (int_range 0 400)) ])
  in
  QCheck.Test.make ~name:"btree matches Map under random ops" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 1 120) op_gen))
    (fun ops ->
      let vfs = Svfs.memory () in
      let p = Pager.create_or_open vfs ~cache_pages:16 "m" in
      Pager.begin_txn p;
      let root = Btree.create p Btree.Table in
      let model = ref I64Map.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Insert (k, v) ->
              Btree.insert_table p ~root ~rowid:k v;
              model := I64Map.add k v !model
          | `Delete k ->
              let found = Btree.delete_table p ~root k in
              if found <> I64Map.mem k !model then ok := false;
              model := I64Map.remove k !model
          | `Lookup k ->
              if Btree.lookup_table p ~root k <> I64Map.find_opt k !model then ok := false
          | `Range (lo, hi) ->
              let got = ref [] in
              Btree.iter_table p ~root ~min:lo ~max:hi (fun r v ->
                  got := (r, v) :: !got;
                  true);
              let expect =
                I64Map.bindings
                  (I64Map.filter
                     (fun k _ -> Int64.compare k lo >= 0 && Int64.compare k hi <= 0)
                     !model)
              in
              if List.rev !got <> expect then ok := false)
        ops;
      (* final full scan agrees *)
      let all = ref [] in
      Btree.iter_table p ~root (fun r v ->
          all := (r, v) :: !all;
          true);
      Pager.commit p;
      Pager.close p;
      !ok && List.rev !all = I64Map.bindings !model)

(* ------------------------------------------------------------------ *)
(* Crash injection: a transaction that dies mid-flight must leave the   *)
(* database exactly as it was before the transaction                    *)
(* ------------------------------------------------------------------ *)

exception Crash

let prop_crash_recovery =
  QCheck.Test.make ~name:"journal recovery after crash at any point" ~count:40
    QCheck.(pair (int_range 1 60) (int_range 0 59))
    (fun (txn_ops, crash_at) ->
      let crash_at = crash_at mod txn_ops in
      let vfs = Svfs.memory () in
      (* committed baseline *)
      let db = Db.open_db ~vfs ~cache_pages:16 "c.db" in
      ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)");
      ignore (Db.exec db "BEGIN");
      for i = 1 to 50 do
        ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'base%d')" i i))
      done;
      ignore (Db.exec db "COMMIT");
      let baseline = Db.query db "SELECT a, b FROM t ORDER BY a" in
      (* a doomed transaction: crash (exception, no rollback call) midway *)
      (try
         ignore (Db.exec db "BEGIN");
         for k = 0 to txn_ops - 1 do
           if k = crash_at then raise Crash;
           ignore
             (Db.exec db
                (Printf.sprintf "INSERT INTO t VALUES (%d, 'doomed%d')" (1000 + k) k));
           if k mod 7 = 0 then
             ignore (Db.exec db (Printf.sprintf "DELETE FROM t WHERE a = %d" (k + 1)));
           if k mod 5 = 0 then
             ignore
               (Db.exec db (Printf.sprintf "UPDATE t SET b = 'mut' WHERE a = %d" (k + 2)))
         done;
         ignore (Db.exec db "COMMIT")
       with Crash -> ());
      (* abandon the handle (simulating process death), reopen from disk:
         the hot journal must roll the half-done transaction back *)
      let db2 = Db.open_db ~vfs ~cache_pages:16 "c.db" in
      let after = Db.query db2 "SELECT a, b FROM t ORDER BY a" in
      Db.close db2;
      after = baseline)

(* Journal recovery must be idempotent: whatever backing-op prefix a
   power loss left behind, running recovery twice is indistinguishable
   from running it once (the second pass finds no hot journal). *)
let prop_recovery_idempotent =
  QCheck.Test.make ~name:"recovery is idempotent at any crash point" ~count:40
    QCheck.(pair (int_range 1 25) (int_range 0 10_000))
    (fun (txn_rows, cut_salt) ->
      let log = Twine_sim.Crashpoint.create () in
      let vfs = Svfs.recording log (Svfs.memory ()) in
      let db = Db.open_db ~vfs ~cache_pages:16 "i.db" in
      ignore (Db.exec db "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)");
      for i = 1 to txn_rows do
        ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'r%d')" i i))
      done;
      ignore (Db.exec db "UPDATE t SET b = 'x' WHERE a = 1");
      Db.close db;
      let at = cut_salt mod (Twine_sim.Crashpoint.length log + 1) in
      let target = Svfs.memory () in
      Twine_sim.Crashpoint.replay log ~at
        ~apply:(fun op ->
          match op with
          | Twine_sim.Crashpoint.Write { file; pos; data } ->
              let f = target.Svfs.v_open file in
              f.Svfs.v_write ~pos data;
              f.Svfs.v_close ()
          | Twine_sim.Crashpoint.Truncate { file; size } ->
              let f = target.Svfs.v_open file in
              f.Svfs.v_truncate size;
              f.Svfs.v_close ()
          | Twine_sim.Crashpoint.Delete { file } -> target.Svfs.v_delete file
          | Twine_sim.Crashpoint.Sync _ -> ());
      let db_bytes () =
        let f = target.Svfs.v_open "i.db" in
        let s = f.Svfs.v_read ~pos:0 ~len:(f.Svfs.v_size ()) in
        f.Svfs.v_close ();
        s
      in
      Pager.recover target "i.db";
      let once = db_bytes () in
      let journal_gone = not (target.Svfs.v_exists "i.db-journal") in
      Pager.recover target "i.db";
      journal_gone && db_bytes () = once)

(* ------------------------------------------------------------------ *)
(* SQL engine vs list model for filters and aggregates                  *)
(* ------------------------------------------------------------------ *)

let prop_sql_filter_model =
  QCheck.Test.make ~name:"WHERE/aggregate results match list model" ~count:40
    QCheck.(pair (small_list (pair (int_range (-50) 50) (int_range (-50) 50)))
              (int_range (-40) 40))
    (fun (rows, threshold) ->
      let db = Db.open_db ":memory:" in
      ignore (Db.exec db "CREATE TABLE t(x INTEGER, y INTEGER)");
      List.iter
        (fun (x, y) ->
          ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" x y)))
        rows;
      let got =
        Db.query db
          (Printf.sprintf
             "SELECT count(*), sum(x) FROM t WHERE x > %d OR y * 2 = x" threshold)
      in
      let matching = List.filter (fun (x, y) -> x > threshold || y * 2 = x) rows in
      let expect_count = List.length matching in
      let expect_sum = List.fold_left (fun a (x, _) -> a + x) 0 matching in
      Db.close db;
      match got with
      | [ [ Value.Int c; s ] ] ->
          Int64.to_int c = expect_count
          && (if expect_count = 0 then s = Value.Null
              else s = Value.Int (Int64.of_int expect_sum))
      | _ -> false)

let prop_sql_order_model =
  QCheck.Test.make ~name:"ORDER BY matches stable sort" ~count:40
    QCheck.(small_list (int_range (-100) 100))
    (fun xs ->
      let db = Db.open_db ":memory:" in
      ignore (Db.exec db "CREATE TABLE t(x INTEGER)");
      List.iter
        (fun x -> ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" x)))
        xs;
      let got = Db.query db "SELECT x FROM t ORDER BY x DESC" in
      Db.close db;
      got
      = List.map
          (fun x -> [ Value.Int (Int64.of_int x) ])
          (List.sort (fun a b -> compare b a) xs))

(* index plan and full scan must agree *)
let prop_index_consistency =
  QCheck.Test.make ~name:"indexed lookup = full scan" ~count:30
    QCheck.(pair (small_list (int_range 0 30)) (int_range 0 30))
    (fun (values, probe) ->
      let db = Db.open_db ":memory:" in
      ignore (Db.exec db "CREATE TABLE t(id INTEGER PRIMARY KEY, v INTEGER)");
      List.iteri
        (fun i v ->
          ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" (i + 1) v)))
        values;
      ignore (Db.exec db "CREATE INDEX t_v ON t(v)");
      (* the planner uses the index for the first query; defeat it with an
         arithmetic identity for the second *)
      let indexed =
        Db.query db (Printf.sprintf "SELECT count(*) FROM t WHERE v = %d" probe)
      in
      let scanned =
        Db.query db (Printf.sprintf "SELECT count(*) FROM t WHERE v + 0 = %d" probe)
      in
      Db.close db;
      indexed = scanned)

(* ------------------------------------------------------------------ *)
(* Protected FS: content must be invariant under cache size and variant *)
(* ------------------------------------------------------------------ *)

let pfs_write_read ~cache_nodes ~variant payload chunks =
  let machine = Twine_sgx.Machine.create ~seed:"inv" () in
  let e = Twine_sgx.Enclave.create machine ~code:"x" () in
  let fs =
    Twine_ipfs.Protected_fs.create e (Twine_ipfs.Backing.memory ()) ~variant
      ~cache_nodes ()
  in
  let f = Twine_ipfs.Protected_fs.open_file fs ~mode:`Trunc "f" in
  (* write in the given chunk sizes *)
  let pos = ref 0 in
  List.iter
    (fun c ->
      let c = min c (String.length payload - !pos) in
      if c > 0 then begin
        ignore (Twine_ipfs.Protected_fs.write f (String.sub payload !pos c));
        pos := !pos + c
      end)
    chunks;
  if !pos < String.length payload then
    ignore
      (Twine_ipfs.Protected_fs.write f
         (String.sub payload !pos (String.length payload - !pos)));
  Twine_ipfs.Protected_fs.close f;
  let f2 = Twine_ipfs.Protected_fs.open_file fs ~mode:`Rdonly "f" in
  let buf = Bytes.create (String.length payload) in
  let rec drain off =
    if off < Bytes.length buf then begin
      let n =
        Twine_ipfs.Protected_fs.read f2 buf ~off ~len:(Bytes.length buf - off)
      in
      if n > 0 then drain (off + n)
    end
  in
  drain 0;
  Twine_ipfs.Protected_fs.close f2;
  Bytes.to_string buf

let prop_pfs_cache_invariance =
  QCheck.Test.make ~name:"protected file content invariant under cache size & cipher"
    ~count:20
    QCheck.(pair (string_of_size Gen.(int_range 1 20_000))
              (small_list (int_range 1 5_000)))
    (fun (payload, chunks) ->
      let reference =
        pfs_write_read ~cache_nodes:1 ~variant:Twine_ipfs.Protected_fs.Stock payload
          chunks
      in
      reference = payload
      && pfs_write_read ~cache_nodes:7 ~variant:Twine_ipfs.Protected_fs.Stock payload
           chunks
         = payload
      && pfs_write_read ~cache_nodes:48 ~variant:Twine_ipfs.Protected_fs.Optimized
           payload chunks
         = payload)

(* ------------------------------------------------------------------ *)
(* Wasm: generated well-typed modules agree between the interpreter and *)
(* the AoT tier, and round-trip through the binary codec               *)
(* ------------------------------------------------------------------ *)

module Wgen = struct
  open Twine_wasm
  open Ast
  module T = Types
  module G = QCheck.Gen

  let ( let* ) = G.( let* )
  let ( and* ) = G.( and* )
  let pick alts = let* f = G.frequencyl alts in f ()

  (* every numeric instruction with its operand and result types, spelled
     out here so the generator does not trust the engines' own table *)
  let numeric =
    let i = T.I32 and l = T.I64 and f = T.F32 and d = T.F64 in
    let un t r ops mk = List.map (fun o -> (mk o, [ t ], r)) ops in
    let bin t r ops mk = List.map (fun o -> (mk o, [ t; t ], r)) ops in
    let iun = [ Clz; Ctz; Popcnt ] and fun_ = [ Abs; Neg; Sqrt; Ceil; Floor; Trunc; Nearest ] in
    let ibin = [ Add; Sub; Mul; Div_s; Div_u; Rem_s; Rem_u; And; Or; Xor; Shl; Shr_s; Shr_u;
                 Rotl; Rotr ] in
    let irel = [ Eq; Ne; Lt_s; Lt_u; Gt_s; Gt_u; Le_s; Le_u; Ge_s; Ge_u ] in
    let fbin = [ Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Copysign ] in
    let frel = [ Feq; Fne; Flt; Fgt; Fle; Fge ] in
    let cvt =
      [ (I32_wrap_i64, l, i); (I64_extend_i32_s, i, l); (I64_extend_i32_u, i, l);
        (I32_trunc_f32_s, f, i); (I32_trunc_f32_u, f, i); (I32_trunc_f64_s, d, i);
        (I32_trunc_f64_u, d, i); (I64_trunc_f32_s, f, l); (I64_trunc_f32_u, f, l);
        (I64_trunc_f64_s, d, l); (I64_trunc_f64_u, d, l); (F32_convert_i32_s, i, f);
        (F32_convert_i32_u, i, f); (F32_convert_i64_s, l, f); (F32_convert_i64_u, l, f);
        (F64_convert_i32_s, i, d); (F64_convert_i32_u, i, d); (F64_convert_i64_s, l, d);
        (F64_convert_i64_u, l, d); (F32_demote_f64, d, f); (F64_promote_f32, f, d);
        (I32_reinterpret_f32, f, i); (I64_reinterpret_f64, d, l); (F32_reinterpret_i32, i, f);
        (F64_reinterpret_i64, l, d); (I32_extend8_s, i, i); (I32_extend16_s, i, i);
        (I64_extend8_s, l, l); (I64_extend16_s, l, l); (I64_extend32_s, l, l) ]
    in
    [ (I32_eqz, [ i ], i); (I64_eqz, [ l ], i) ]
    @ un i i iun (fun o -> I32_unop o) @ un l l iun (fun o -> I64_unop o)
    @ un f f fun_ (fun o -> F32_unop o) @ un d d fun_ (fun o -> F64_unop o)
    @ bin i i ibin (fun o -> I32_binop o) @ bin l l ibin (fun o -> I64_binop o)
    @ bin i i irel (fun o -> I32_relop o) @ bin l i irel (fun o -> I64_relop o)
    @ bin f f fbin (fun o -> F32_binop o) @ bin d d fbin (fun o -> F64_binop o)
    @ bin f i frel (fun o -> F32_relop o) @ bin d i frel (fun o -> F64_relop o)
    @ List.map (fun (o, s, r) -> (Cvt o, [ s ], r)) cvt

  (* memory instructions by value type, built from a memarg *)
  let loads =
    [ ((fun m -> I32_load m), T.I32); ((fun m -> I32_load8_s m), T.I32);
      ((fun m -> I32_load8_u m), T.I32); ((fun m -> I32_load16_s m), T.I32);
      ((fun m -> I32_load16_u m), T.I32); ((fun m -> I64_load m), T.I64);
      ((fun m -> I64_load8_s m), T.I64); ((fun m -> I64_load8_u m), T.I64);
      ((fun m -> I64_load16_s m), T.I64); ((fun m -> I64_load16_u m), T.I64);
      ((fun m -> I64_load32_s m), T.I64); ((fun m -> I64_load32_u m), T.I64);
      ((fun m -> F32_load m), T.F32); ((fun m -> F64_load m), T.F64) ]

  let stores =
    [ ((fun m -> I32_store m), T.I32); ((fun m -> I32_store8 m), T.I32);
      ((fun m -> I32_store16 m), T.I32); ((fun m -> I64_store m), T.I64);
      ((fun m -> I64_store8 m), T.I64); ((fun m -> I64_store16 m), T.I64);
      ((fun m -> I64_store32 m), T.I64); ((fun m -> F32_store m), T.F32);
      ((fun m -> F64_store m), T.F64) ]

  let tys = [ T.I32; T.I64; T.F32; T.F64 ]

  let float_gen =
    G.frequency
      [ (3, G.map (fun n -> float_of_int n /. 4.) (G.int_range (-40) 40));
        (2, G.oneofl [ 0.; -0.; nan; infinity; neg_infinity; 2147483648.; -2147483649.;
                       4294967296.; 9.3e18; -9.3e18; 1.9e19; 1e-310;
                       Int64.float_of_bits 0x7ff4000000000001L ]);
        (1, G.float) ]

  let const = function
    | T.I32 ->
        G.map (fun v -> I32_const v)
          (G.frequency [ (4, G.map Int32.of_int (G.int_range (-3) 8));
                         (1, G.oneofl [ Int32.min_int; Int32.max_int; -1l ]);
                         (1, G.map Int32.of_int G.int) ])
    | T.I64 ->
        G.map (fun v -> I64_const v)
          (G.frequency [ (4, G.map Int64.of_int (G.int_range (-3) 8));
                         (1, G.oneofl [ Int64.min_int; Int64.max_int; -1L ]);
                         (1, G.map Int64.of_int G.int) ])
    | T.F32 -> G.map (fun x -> F32_const (Values.f32_round x)) float_gen
    | T.F64 -> G.map (fun x -> F64_const x) float_gen

  type label = Blk of T.valtype option | Lp  (* loops are only re-entered by their counter *)
  type fn = { args : T.valtype list; ret : T.valtype option }

  type ctx = {
    locals : T.valtype array;  (* params and locals the body may write *)
    labels : label list;  (* innermost first; the last is the function's *)
    depth : int;  (* loop nesting; loop d counts down local [counter + d] *)
    counter : int;
    callees : (int * fn) list;
    types : (int * fn) list option;  (* call_indirect allowed *)
    globals : (int * T.valtype * bool) list;  (* index, type, mutable *)
    result : T.valtype option;
  }

  let max_depth = 3
  let sub ctx l = { ctx with labels = l :: ctx.labels }

  let rec expr ctx t n : instr list G.t =
    let locals =
      List.filter (fun i -> ctx.locals.(i) = t) (List.init (Array.length ctx.locals) Fun.id)
    in
    let globals = List.filter (fun (_, gt, _) -> gt = t) ctx.globals in
    let leaf () =
      pick
        ((3, fun () -> G.map (fun c -> [ c ]) (const t))
         :: (if locals = [] then []
             else [ (3, fun () -> G.map (fun i -> [ Local_get i ]) (G.oneofl locals)) ])
        @ (if globals = [] then [] else
             [ (1, fun () -> G.map (fun (g, _, _) -> [ Global_get g ]) (G.oneofl globals)) ])
        @ if t = T.I32 then [ (1, fun () -> G.return [ Memory_size ]) ] else [])
    in
    if n <= 0 then leaf ()
    else
      let n' = n - 1 in
      let callees = List.filter (fun (_, f) -> f.ret = Some t) ctx.callees in
      pick
        ([ (3, leaf);
           (6, fun () ->
             let* op, args, _ = G.oneofl (List.filter (fun (_, _, r) -> r = t) numeric) in
             let* code =
               G.flatten_l (List.map (fun a -> expr ctx a (n' / List.length args)) args)
             in
             G.return (List.concat code @ [ op ]));
           (2, fun () ->
             let* mk, _ = G.oneofl (List.filter (fun (_, r) -> r = t) loads) in
             let* a = addr ctx n' in
             let* off = G.frequencyl [ (6, 0); (1, 4); (1, 65532) ] in
             G.return (a @ [ mk { offset = off; align = 0 } ]));
           (1, fun () ->
             let inner = sub ctx (Blk (Some t)) in
             let* s = stmts inner n' in
             let* e = expr inner t n' in
             let* exit = G.frequencyl [ (2, `Fall); (1, `Br_if); (1, `Br) ] in
             match exit with
             | `Fall -> G.return [ Block (Some t, s @ e) ]
             | `Br_if ->
                 let* c = expr inner T.I32 (n' / 2) in
                 G.return [ Block (Some t, s @ e @ c @ [ Br_if 0 ]) ]
             | `Br ->
                 let* c = expr inner T.I32 (n' / 2) in
                 let* e2 = expr (sub inner (Blk None)) t (n' / 2) in
                 G.return [ Block (Some t, s @ c @ [ If (None, e2 @ [ Br 1 ], []) ] @ e) ]);
           (2, fun () ->
             let inner = sub ctx (Blk (Some t)) in
             let* c = expr ctx T.I32 (n' / 2) in
             let* s1 = stmts inner (n' / 2) and* e1 = expr inner t (n' / 2) in
             let* s2 = stmts inner (n' / 2) and* e2 = expr inner t (n' / 2) in
             G.return (c @ [ If (Some t, s1 @ e1, s2 @ e2) ]));
           (1, fun () ->
             let* a = expr ctx t (n' / 2) and* b = expr ctx t (n' / 2) in
             let* c = expr ctx T.I32 (n' / 2) in
             G.return (a @ b @ c @ [ Select ]));
           (1, fun () ->
             (* br_table over two labels that both carry t *)
             let inner = sub (sub ctx (Blk (Some t))) (Blk (Some t)) in
             let* e = expr inner t (n' / 2) in
             let* i = expr inner T.I32 (n' / 2) in
             let* ks = G.list_size (G.int_range 0 3) (G.int_range 0 1) in
             let* k = G.int_range 0 1 in
             G.return [ Block (Some t, [ Block (Some t, e @ i @ [ Br_table (ks, k) ]) ]) ]) ]
        @ (if ctx.depth >= max_depth then [] else
             [ (1, fun () ->
                 let c = ctx.counter + ctx.depth in
                 let inner = { (sub ctx Lp) with depth = ctx.depth + 1 } in
                 let* k = G.int_range 0 3 in
                 let* s = stmts inner n' in
                 let* e = expr inner t n' in
                 G.return
                   ([ I32_const (Int32.of_int k); Local_set c ]
                   @ [ Loop (Some t, s @ [ Local_get c; I32_const 1l; I32_binop Sub; Local_tee c;
                                           Br_if 0 ] @ e) ])) ])
        @ (if locals = [] then [] else
             [ (1, fun () ->
                 let* i = G.oneofl locals in
                 let* e = expr ctx t n' in
                 G.return (e @ [ Local_tee i ]));
               (1, fun () ->
                 (* the old value of a local that a conditional then overwrites *)
                 let* i = G.oneofl locals in
                 let* k = const t in
                 let* c = expr ctx T.I32 (n' / 2) in
                 let* e = expr (sub ctx (Blk None)) t (n' / 2) in
                 G.return
                   ([ k; Local_set i; Local_get i ] @ c @ [ If (None, e @ [ Local_set i ], []) ]))
             ])
        @ (if callees = [] then [] else [ (2, fun () -> call ctx n' (G.oneofl callees)) ])
        @
        match ctx.types with
        | None -> []
        | Some types ->
            let types = List.filter (fun (_, f) -> f.ret = Some t) types in
            if types = [] then [] else [ (2, fun () -> call_indirect ctx n' types) ])

  and call ?(drop = false) ctx n callee =
    let* f, sg = callee in
    let* args = G.flatten_l (List.map (fun a -> expr ctx a (n / 2)) sg.args) in
    G.return (List.concat args @ [ Call f ] @ if drop && sg.ret <> None then [ Drop ] else [])

  and call_indirect ctx n types =
    let* ti, sg = G.oneofl types in
    let* args = G.flatten_l (List.map (fun a -> expr ctx a (n / 2)) sg.args) in
    let* i = G.frequency [ (5, G.map (fun i -> [ I32_const (Int32.of_int i) ]) (G.int_range 0 6));
                           (1, expr ctx T.I32 (n / 2)) ] in
    G.return (List.concat args @ i @ [ Call_indirect ti ])

  (* mostly in bounds, sometimes at the end of the page, sometimes anywhere *)
  and addr ctx n =
    G.frequency
      [ (6, G.map (fun a -> [ I32_const (Int32.of_int a) ]) (G.int_range 0 300));
        (1, G.map (fun a -> [ I32_const (Int32.of_int a) ]) (G.int_range 65520 65540));
        (1, expr ctx T.I32 n) ]

  and stmt ctx n : instr list G.t =
    let n' = n - 1 in
    let writable = List.init (Array.length ctx.locals) Fun.id in
    let indexed = List.mapi (fun k l -> (k, l)) ctx.labels in
    let blocks = List.filter_map (function k, Blk c -> Some (k, c) | _, Lp -> None) indexed in
    pick
      ([ (1, fun () -> G.return [ Nop ]);
         (2, fun () ->
           let* t = G.oneofl tys in
           let* e = expr ctx t n' in
           G.return (e @ [ Drop ]));
         (3, fun () ->
           let* mk, t = G.oneofl stores in
           let* a = addr ctx (n' / 2) in
           let* v = expr ctx t (n' / 2) in
           let* off = G.frequencyl [ (6, 0); (1, 8); (1, 65534) ] in
           G.return (a @ v @ [ mk { offset = off; align = 0 } ]));
         (1, fun () ->
           let inner = sub ctx (Blk None) in
           let* c = expr ctx T.I32 (n' / 2) in
           let* a = stmts inner (n' / 2) and* b = stmts inner (n' / 2) in
           G.return (c @ [ If (None, a, b) ]));
         (1, fun () ->
           let* s = stmts (sub ctx (Blk None)) n' in
           G.return [ Block (None, s) ]);
         (1, fun () ->
           (* a branch out, carrying what the target label takes *)
           let* k, c = G.oneofl blocks in
           let* v = match c with Some t -> expr ctx t (n' / 2) | None -> G.return [] in
           let* kind = G.frequencyl [ (3, `Br_if); (1, `Br); (1, `Table) ] in
           match kind with
           | `Br_if ->
               let* cond = expr ctx T.I32 (n' / 2) in
               G.return (v @ cond @ [ Br_if k ] @ if c = None then [] else [ Drop ])
           | `Br -> G.return (v @ [ Br k ])
           | `Table ->
               let same =
                 List.filter_map (fun (k', c') -> if c' = c then Some k' else None) blocks
               in
               let* ks = G.list_size (G.int_range 0 3) (G.oneofl same) in
               let* i = expr ctx T.I32 (n' / 2) in
               G.return (v @ i @ [ Br_table (ks, k) ]));
         (1, fun () ->
           let* v = match ctx.result with Some t -> expr ctx t n' | None -> G.return [] in
           G.return (v @ [ Return ]));
         (1, fun () -> G.oneofl [ [ Nop ]; [ Nop ]; [ Unreachable ] ]) ]
      @ (if writable = [] then [] else
           [ (4, fun () ->
               let* i = G.oneofl writable in
               let* e = expr ctx ctx.locals.(i) n' in
               G.return (e @ [ Local_set i ])) ])
      @ (match List.filter (fun (_, _, m) -> m) ctx.globals with
        | [] -> []
        | gs ->
            [ (1, fun () ->
                let* g, t, _ = G.oneofl gs in
                let* e = expr ctx t n' in
                G.return (e @ [ Global_set g ])) ])
      @ (if ctx.depth >= max_depth then [] else
           [ (1, fun () ->
               let c = ctx.counter + ctx.depth in
               let* k = G.int_range 0 4 in
               let* s = stmts { (sub ctx Lp) with depth = ctx.depth + 1 } n' in
               G.return
                 [ I32_const (Int32.of_int k); Local_set c;
                   Loop
                     ( None,
                       s @ [ Local_get c; I32_const 1l; I32_binop Sub; Local_tee c; Br_if 0 ] ) ])
           ])
      @
      if ctx.callees = [] then []
      else
        [ (1, fun () -> call ~drop:true ctx n' (G.oneofl ctx.callees)) ])

  and stmts ctx n =
    if n <= 0 then G.return []
    else
      let* k = G.int_range 0 3 in
      let* ss = G.flatten_l (List.init k (fun _ -> stmt ctx (n - 1))) in
      G.return (List.concat ss)

  (* A module of up to four functions calling only upward (so no
     recursion) and an imported host function that returns the fuel used
     so far, a table whose upper half holds functions and holes, four
     mutable globals and one immutable, one page with data, and a fuel
     limit. The first local function is "main"; it may first grow the
     memory (up to three pages), which compiled code must then see. *)
  let gen =
    let* n_funcs = G.int_range 1 4 in
    let* sigs =
      G.list_repeat n_funcs
        (let* params = G.list_size (G.int_range 0 2) (G.oneofl tys) in
         let* result = G.frequency [ (1, G.return None); (3, G.map Option.some (G.oneofl tys)) ] in
         G.return { args = params; ret = result })
    in
    let sigs = Array.of_list ({ (List.hd sigs) with args = [] } :: List.tl sigs) in
    let* extra = G.map (fun r -> { args = [ T.I32 ]; ret = r }) (G.oneofl [ None; Some T.F64 ]) in
    let* locals = G.list_repeat n_funcs (G.list_size (G.int_range 0 3) (G.oneofl tys)) in
    let* ginit = G.flatten_l (List.map const tys) and* gimm = const T.I32 in
    let* table_size = G.int_range 1 5 in
    let split = max 1 (n_funcs / 2) in
    let* elems =
      G.list_repeat table_size
        (if split >= n_funcs then G.return None
         else
           G.frequency
             [ (3, G.map Option.some (G.int_range split (n_funcs - 1))); (1, G.return None) ])
    in
    let* data = G.string_size (G.return 64) in
    let* size = G.int_range 2 12 in
    let b = Builder.create () in
    let host = Builder.import_func b ~module_:"env" ~name:"fuel" ~params:[] ~results:[ T.I32 ] in
    let fidx i = host + 1 + i in
    let ti f = Builder.add_type b ~params:f.args ~results:(Option.to_list f.ret) in
    let types = List.map (fun f -> (ti f, f)) (Array.to_list sigs @ [ extra ]) in
    let globals =
      List.map (fun (t, init) -> (Builder.add_global b ~mut:T.Var t [ init ], t, true))
        (List.combine tys ginit)
      @ [ (Builder.add_global b ~mut:T.Const T.I32 [ gimm ], T.I32, false) ]
    in
    let* bodies =
      G.flatten_l
        (List.mapi
           (fun i locals ->
             let f = sigs.(i) in
             let all = Array.of_list (f.args @ locals) in
             let ctx =
               { locals = all; labels = [ Blk f.ret ]; depth = 0; counter = Array.length all;
                 callees =
                   (host, { args = []; ret = Some T.I32 })
                   :: List.filter_map (fun j -> if j > i then Some (fidx j, sigs.(j)) else None)
                        (List.init n_funcs Fun.id);
                 types = (if i < split then Some types else None); globals; result = f.ret }
             in
             let* grow = G.oneofl [ []; []; [ I32_const 1l; Memory_grow; Drop ];
                                     [ I32_const 2l; Memory_grow; Drop ] ] in
             let* s = stmts ctx size in
             let* e = match f.ret with Some t -> expr ctx t size | None -> G.return [] in
             G.return ((if i = 0 then grow else []) @ s @ e))
           locals)
    in
    List.iteri
      (fun i (body, locals) ->
        let f = sigs.(i) in
        ignore
          (Builder.add_func b ?name:(if i = 0 then Some "main" else None) ~params:f.args
             ~results:(Option.to_list f.ret)
             ~locals:(locals @ List.init max_depth (fun _ -> T.I32)) body))
      (List.combine bodies locals);
    Builder.add_memory b ~max:3 1;
    Builder.add_data b ~offset:0 data;
    Builder.add_table b table_size;
    List.iteri (fun k e -> Option.iter (fun f -> Builder.add_elem b ~offset:k [ fidx f ]) e) elems;
    let* fuel =
      G.frequency [ (1, G.int_range 0 60); (2, G.int_range 60 3000); (2, G.return 1_000_000) ]
    in
    G.return (Builder.build b, fuel)

  (* The same modules with one instruction, at any depth of one function,
     deleted or replaced by one that is often ill-typed there. *)
  let mutated =
    let* m, fuel = gen in
    let* fi = G.int_range 0 (Array.length m.funcs - 1) in
    let rec size body =
      List.fold_left
        (fun n i ->
          n + 1
          +
          match i with
          | Block (_, b) | Loop (_, b) -> size b
          | If (_, a, b) -> size a + size b
          | _ -> 0)
        0 body
    in
    let* pos = G.int_range 0 (max 0 (size m.funcs.(fi).body - 1)) in
    let* repl =
      G.oneofl
        [ []; [ Drop ]; [ I64_const 1L ]; [ Local_get 0 ]; [ F32_const 1. ]; [ I32_binop Add ];
          [ Br 0 ]; [ Br_if 1 ]; [ Select ]; [ Return ]; [ Block (Some T.I32, []) ];
          [ Call 0 ]; [ Local_set 0 ]; [ Global_set 4 ] ]
    in
    let k = ref 0 in
    let rec edit body =
      List.concat_map
        (fun i ->
          incr k;
          if !k = pos + 1 then repl
          else
            match i with
            | Block (bt, b) -> [ Block (bt, edit b) ]
            | Loop (bt, b) -> [ Loop (bt, edit b) ]
            | If (bt, a, b) ->
                let a = edit a in
                [ If (bt, a, edit b) ]
            | i -> [ i ])
        body
    in
    let funcs = Array.copy m.funcs in
    funcs.(fi) <- { (funcs.(fi)) with body = edit funcs.(fi).body };
    G.return ({ m with funcs }, fuel)
end

(* An instance of a generated module, whose "env"."fuel" import returns
   the instance's fuel used so far. *)
let instantiate_generated m =
  let open Twine_wasm in
  let self = ref None in
  let host =
    Instance.host_func ~name:"fuel" { Types.params = []; results = [ Types.I32 ] } (fun _ ->
        [ Values.I32 (Int32.of_int (Option.get !self).Instance.fuel_used) ])
  in
  let inst = Interp.instantiate ~imports:[ ("env", "fuel", Instance.Extern_func host) ] m in
  self := Some inst;
  inst

(* Everything one engine leaves observable: the result or trap, fuel,
   memory, globals, and in order the access hook's calls and the call
   hooks' events with the fuel each one reads. *)
let run_generated m ~fuel ~aot =
  let open Twine_wasm in
  let show = function
    | Values.I32 v -> Printf.sprintf "i32:%ld" v
    | Values.I64 v -> Printf.sprintf "i64:%Ld" v
    | Values.F32 x -> Printf.sprintf "f32:%Lx" (Int64.bits_of_float x)
    | Values.F64 x -> Printf.sprintf "f64:%Lx" (Int64.bits_of_float x)
  in
  let inst = instantiate_generated m in
  let fuel_now () = inst.Instance.fuel_used in
  if aot then ignore (Aot.compile_instance inst);
  inst.Instance.fuel_limit <- fuel;
  let mem = Option.get inst.Instance.memory in
  let log = ref [] in
  Memory.on_access mem := Some (fun ~addr ~len -> log := (0, addr, len) :: !log);
  let event tag i = log := (tag, i, fuel_now ()) :: !log in
  inst.Instance.hooks <- Some { Instance.on_enter = event 1; on_exit = event 2 };
  let outcome =
    match Interp.invoke inst "main" [] with
    | vs -> String.concat "," (List.map show vs)
    | exception Values.Trap msg -> "trap: " ^ msg
  in
  Memory.on_access mem := None;
  ( outcome,
    inst.Instance.fuel_used,
    Array.to_list (Array.map (fun g -> show g.Instance.g_value) inst.Instance.globals),
    Digest.string (Memory.load_bytes mem 0 (Memory.size_bytes mem)),
    List.rev !log )

let prop_wasm_generated =
  let open Twine_wasm in
  QCheck.Test.make ~name:"generated modules: interp = aot" ~count:1000
    (QCheck.make Wgen.gen)
    (fun (m, fuel) ->
      Validate.check_module m;
      let (o1, f1, g1, m1, a1) = run_generated m ~fuel ~aot:false in
      let (o2, f2, g2, m2, a2) = run_generated m ~fuel ~aot:true in
      if compare (Binary.decode (Binary.encode m)) m <> 0 then
        QCheck.Test.fail_report "binary round trip changed the module";
      if (o1, f1, g1, m1) <> (o2, f2, g2, m2) || a1 <> a2 then
        QCheck.Test.fail_reportf
          "interp: %s fuel %d [%s]\naot: %s fuel %d [%s]\naccesses %d vs %d (%b)"
          o1 f1 (String.concat " " g1) o2 f2 (String.concat " " g2) (List.length a1)
          (List.length a2) (m1 = m2);
      true)

(* The tier rejects a damaged module with [Validate.Invalid], never a
   valid one; when the damage sits in code that never runs, it compiles
   the module and runs it exactly as the interpreter does. *)
let prop_wasm_mutated =
  let open Twine_wasm in
  QCheck.Test.make ~name:"aot rejects or agrees on mutants" ~count:300
    (QCheck.make Wgen.mutated)
    (fun (m, fuel) ->
      match Aot.compile_instance (instantiate_generated m) with
      | exception Validate.Invalid msg ->
          if Validate.is_valid m then QCheck.Test.fail_reportf "valid module rejected: %s" msg;
          true
      | _ -> run_generated m ~fuel ~aot:false = run_generated m ~fuel ~aot:true)

(* WAT pretty-print-free roundtrip: binary encode/decode preserves
   behaviour on the polybench suite was covered elsewhere; here check the
   validator accepts everything the engines execute *)
let prop_valid_modules_run =
  QCheck.Test.make ~name:"validated arithmetic never traps on stack errors" ~count:100
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      let open Twine_wasm in
      let src =
        Printf.sprintf
          {|(module (func (export "f") (result i32)
              (i32.add (i32.mul (i32.const %d) (i32.const 3)) (i32.const %d))))|}
          a b
      in
      let m = Wat.parse src in
      Validate.check_module m;
      match Interp.invoke (Interp.instantiate m) "f" [] with
      | [ Values.I32 v ] -> v = Int32.add (Int32.mul (Int32.of_int a) 3l) (Int32.of_int b)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Simulated time must be deterministic: same workload, same clock      *)
(* ------------------------------------------------------------------ *)

let test_simulation_deterministic () =
  let run () =
    let machine = Twine_sgx.Machine.create ~seed:"det" () in
    let r =
      Twine.Microbench.sweep ~machine ~blob_bytes:128 ~rand_reads:50
        ~wasm_factor:2.0 Twine.Bench_db.Twine_rt Twine.Bench_db.File
        ~sizes:[ 300 ] ()
    in
    let p = List.hd r.Twine.Microbench.points in
    (p.Twine.Microbench.insert_ns, p.Twine.Microbench.seq_read_ns,
     p.Twine.Microbench.rand_read_ns)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical simulated times" true (a = b)

let test_fig7_components_sum_sanely () =
  let b =
    Twine.Microbench.ipfs_breakdown ~records:500 ~samples:200 ~cache_pages:16
      Twine_ipfs.Protected_fs.Stock
  in
  let parts =
    b.Twine.Microbench.memset_ns + b.Twine.Microbench.ocall_ns
    + b.Twine.Microbench.read_ns + b.Twine.Microbench.sqlite_ns
  in
  Alcotest.(check bool) "components do not exceed total" true
    (parts <= b.Twine.Microbench.total_ns);
  Alcotest.(check bool) "components cover most of the total" true
    (float_of_int parts >= 0.5 *. float_of_int b.Twine.Microbench.total_ns)

let suite =
  [ ("storage-model", [
      qc prop_btree_model;
      qc prop_crash_recovery;
      qc prop_recovery_idempotent;
      qc prop_sql_filter_model;
      qc prop_sql_order_model;
      qc prop_index_consistency;
    ]);
    ("pfs-invariance", [ qc prop_pfs_cache_invariance ]);
    ("wasm-equivalence", [
      qc prop_wasm_generated;
      qc prop_wasm_mutated;
      qc prop_valid_modules_run;
    ]);
    ("simulation", [
      Alcotest.test_case "deterministic clock" `Quick test_simulation_deterministic;
      Alcotest.test_case "fig7 components sane" `Quick test_fig7_components_sum_sanely;
    ]);
  ]

let () = Alcotest.run "twine_properties" suite
