(* WAT parser: lexer -> s-expressions -> AST translation. *)

open Types
open Ast

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- S-expressions --- *)

type sexp = Atom of string | Str of string | List of sexp list

let lex src =
  let n = String.length src in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ';' && peek 1 = Some ';' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '(' && peek 1 = Some ';' then begin
      (* nested block comments *)
      let depth = ref 1 in
      i := !i + 2;
      while !i < n && !depth > 0 do
        if src.[!i] = '(' && peek 1 = Some ';' then begin
          incr depth;
          i := !i + 2
        end
        else if src.[!i] = ';' && peek 1 = Some ')' then begin
          decr depth;
          i := !i + 2
        end
        else incr i
      done
    end
    else if c = '(' then begin
      emit `LP;
      incr i
    end
    else if c = ')' then begin
      emit `RP;
      incr i
    end
    else if c = '"' then begin
      let b = Buffer.create 16 in
      incr i;
      let rec go () =
        if !i >= n then fail "unterminated string";
        match src.[!i] with
        | '"' -> incr i
        | '\\' -> (
            incr i;
            if !i >= n then fail "bad escape";
            (match src.[!i] with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | '\'' -> Buffer.add_char b '\''
            | 'u' -> fail "unicode escapes unsupported"
            | c1 ->
                (* two-digit hex escape *)
                let hexval c =
                  match c with
                  | '0' .. '9' -> Char.code c - 48
                  | 'a' .. 'f' -> Char.code c - 87
                  | 'A' .. 'F' -> Char.code c - 55
                  | _ -> fail "bad hex escape"
                in
                incr i;
                if !i >= n then fail "bad hex escape";
                Buffer.add_char b (Char.chr ((hexval c1 * 16) + hexval src.[!i])));
            incr i;
            go ())
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
      in
      go ();
      emit (`STR (Buffer.contents b))
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else begin
      let start = !i in
      while
        !i < n
        &&
        match src.[!i] with
        | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
        | _ -> true
      do
        incr i
      done;
      emit (`ATOM (String.sub src start (!i - start)))
    end
  done;
  List.rev !tokens

let parse_sexps tokens =
  let rec parse_list acc = function
    | [] -> (List.rev acc, [])
    | `RP :: rest -> (List.rev acc, rest)
    | toks ->
        let s, rest = parse_one toks in
        parse_list (s :: acc) rest
  and parse_one = function
    | `LP :: rest ->
        let items, rest = parse_exprs rest in
        (List items, rest)
    | `ATOM a :: rest -> (Atom a, rest)
    | `STR s :: rest -> (Str s, rest)
    | `RP :: _ -> fail "unexpected )"
    | [] -> fail "unexpected end of input"
  and parse_exprs toks =
    let rec go acc = function
      | `RP :: rest -> (List.rev acc, rest)
      | [] -> fail "missing )"
      | toks ->
          let s, rest = parse_one toks in
          go (s :: acc) rest
    in
    go [] toks
  in
  let items, rest = parse_list [] tokens in
  if rest <> [] then fail "trailing tokens";
  items

(* --- numbers --- *)

let parse_i32 s =
  let s = String.concat "" (String.split_on_char '_' s) in
  (* OCaml's of_string accepts hex in [0, 2^32) and wraps, matching the
     WAT convention; unsigned decimal beyond max_int32 wraps via Int64 *)
  match Int32.of_string_opt s with
  | Some v -> v
  | None -> (
      match Int64.of_string_opt s with
      | Some v -> Int64.to_int32 v
      | None -> fail "bad i32 literal %S" s)

let parse_i64 s =
  let s = String.concat "" (String.split_on_char '_' s) in
  match Int64.of_string_opt s with
  | Some v -> v
  | None -> fail "bad i64 literal %S" s

let parse_float s =
  let s = String.concat "" (String.split_on_char '_' s) in
  match s with
  | "inf" -> Float.infinity
  | "-inf" -> Float.neg_infinity
  | "nan" | "+nan" -> Float.nan
  | "-nan" -> -.Float.nan
  | _ -> ( try float_of_string s with _ -> fail "bad float literal %S" s)

(* --- name environments --- *)

type env = {
  mutable func_names : (string * int) list;
  mutable global_names : (string * int) list;
  mutable type_names : (string * int) list;
}

let resolve_idx names s =
  if String.length s > 0 && s.[0] = '$' then
    match List.assoc_opt s names with
    | Some i -> i
    | None -> fail "unknown name %s" s
  else
    match int_of_string_opt s with Some i -> i | None -> fail "bad index %S" s

let valtype_of_atom = function
  | "i32" -> I32
  | "i64" -> I64
  | "f32" -> F32
  | "f64" -> F64
  | s -> fail "unknown value type %s" s

(* Parse (param ...) / (result ...) lists; returns types and names. *)
let parse_params items =
  List.concat_map
    (function
      | List (Atom "param" :: Atom n :: [ Atom ty ]) when n.[0] = '$' ->
          [ (Some n, valtype_of_atom ty) ]
      | List (Atom "param" :: tys) ->
          List.map (function Atom ty -> (None, valtype_of_atom ty) | _ -> fail "bad param") tys
      | _ -> fail "expected (param ...)")
    items

let parse_results items =
  List.concat_map
    (function
      | List (Atom "result" :: tys) ->
          List.map (function Atom ty -> valtype_of_atom ty | _ -> fail "bad result") tys
      | _ -> fail "expected (result ...)")
    items

let split_while p l =
  let rec go acc = function
    | x :: rest when p x -> go (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] l

let is_clause name = function List (Atom a :: _) -> a = name | _ -> false

(* --- instruction translation --- *)

(* Memarg: offset=N align=N tokens. *)
let parse_memarg atoms default_align =
  let offset = ref 0 and align = ref default_align in
  let rest =
    List.filter
      (fun s ->
        match s with
        | Atom a when String.length a > 7 && String.sub a 0 7 = "offset=" ->
            offset := int_of_string (String.sub a 7 (String.length a - 7));
            false
        | Atom a when String.length a > 6 && String.sub a 0 6 = "align=" ->
            align := int_of_string (String.sub a 6 (String.length a - 6));
            false
        | _ -> true)
      atoms
  in
  ({ offset = !offset; align = !align }, rest)

type fenv = {
  env : env;
  locals : (string * int) list;
  mutable labels : string option list;  (* innermost first *)
}

let label_index fenv s =
  if String.length s > 0 && s.[0] = '$' then begin
    let rec go i = function
      | [] -> fail "unknown label %s" s
      | Some l :: _ when l = s -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 fenv.labels
  end
  else
    match int_of_string_opt s with Some i -> i | None -> fail "bad label %S" s

(* Parse the optional label and result type of a block header; returns
   (label, blocktype, remaining). *)
let parse_block_header fenv items =
  let label, items =
    match items with
    | Atom a :: rest when String.length a > 0 && a.[0] = '$' -> (Some a, rest)
    | _ -> (None, items)
  in
  let bt, items =
    match items with
    | List [ Atom "result"; Atom ty ] :: rest -> (Some (valtype_of_atom ty), rest)
    | _ -> (None, items)
  in
  ignore fenv;
  (label, bt, items)

let rec translate_instrs fenv (items : sexp list) : instr list =
  match items with
  | [] -> []
  | Atom a :: rest -> translate_plain fenv a rest
  | List (Atom a :: inner) :: rest ->
      (* folded form *)
      translate_folded fenv a inner @ translate_instrs fenv rest
  | s :: _ -> fail "unexpected token %s" (match s with Str s -> s | _ -> "?")

and translate_plain fenv a rest =
  (* a flat instruction possibly consuming following atoms as immediates *)
  match a with
  | "block" | "loop" ->
      let label, bt, body_items = parse_block_header fenv rest in
      (* flat blocks run to 'end' *)
      let body, rest = split_until_end body_items in
      fenv.labels <- label :: fenv.labels;
      let body_i = translate_instrs fenv body in
      fenv.labels <- List.tl fenv.labels;
      (if a = "block" then Block (bt, body_i) else Loop (bt, body_i))
      :: translate_instrs fenv rest
  | "if" ->
      let label, bt, body_items = parse_block_header fenv rest in
      let body, rest = split_until_end body_items in
      let then_items, else_items = split_at_else body in
      fenv.labels <- label :: fenv.labels;
      let t = translate_instrs fenv then_items in
      let e = translate_instrs fenv else_items in
      fenv.labels <- List.tl fenv.labels;
      If (bt, t, e) :: translate_instrs fenv rest
  | _ ->
      let instr, rest = translate_one fenv a rest in
      instr :: translate_instrs fenv rest

and translate_one fenv a rest : instr * sexp list =
  match List.find_map (fun (n, i, _) -> if n = a then Some i else None) simple_instrs with
  | Some i -> (i, rest)
  | None -> (
      match List.assoc_opt a mem_instrs with
      | Some mk ->
          let natural =
            match mem_access (mk { offset = 0; align = 0 }) with Some (_, _, a, _) -> a | None -> 0
          in
          let memarg, rest = parse_memarg rest natural in
          (mk memarg, rest)
      | None -> (
          match (a, rest) with
          | "i32.const", Atom v :: rest -> (I32_const (parse_i32 v), rest)
          | "i64.const", Atom v :: rest -> (I64_const (parse_i64 v), rest)
          | "f32.const", Atom v :: rest ->
              (F32_const (Values.f32_round (parse_float v)), rest)
          | "f64.const", Atom v :: rest -> (F64_const (parse_float v), rest)
          | "local.get", Atom v :: rest -> (Local_get (resolve_idx fenv.locals v), rest)
          | "local.set", Atom v :: rest -> (Local_set (resolve_idx fenv.locals v), rest)
          | "local.tee", Atom v :: rest -> (Local_tee (resolve_idx fenv.locals v), rest)
          | "global.get", Atom v :: rest ->
              (Global_get (resolve_idx fenv.env.global_names v), rest)
          | "global.set", Atom v :: rest ->
              (Global_set (resolve_idx fenv.env.global_names v), rest)
          | "call", Atom v :: rest -> (Call (resolve_idx fenv.env.func_names v), rest)
          | "br", Atom v :: rest -> (Br (label_index fenv v), rest)
          | "br_if", Atom v :: rest -> (Br_if (label_index fenv v), rest)
          | "br_table", _ ->
              let rec take acc = function
                | Atom v :: more
                  when (v.[0] = '$' || int_of_string_opt v <> None) ->
                    take (label_index fenv v :: acc) more
                | more -> (List.rev acc, more)
              in
              let targets, rest = take [] rest in
              (match List.rev targets with
              | dflt :: others -> (Br_table (List.rev others, dflt), rest)
              | [] -> fail "br_table needs targets")
          | _ -> fail "unknown instruction %s" a))

and split_until_end items =
  let rec go depth acc = function
    | [] -> fail "missing end"
    | Atom "end" :: rest when depth = 0 -> (List.rev acc, rest)
    | (Atom ("block" | "loop" | "if") as x) :: rest -> go (depth + 1) (x :: acc) rest
    | Atom "end" :: rest -> go (depth - 1) (Atom "end" :: acc) rest
    | x :: rest -> go depth (x :: acc) rest
  in
  go 0 [] items

and split_at_else items =
  let rec go depth acc = function
    | [] -> (List.rev acc, [])
    | Atom "else" :: rest when depth = 0 -> (List.rev acc, rest)
    | (Atom ("block" | "loop" | "if") as x) :: rest -> go (depth + 1) (x :: acc) rest
    | Atom "end" :: rest -> go (depth - 1) (Atom "end" :: acc) rest
    | x :: rest -> go depth (x :: acc) rest
  in
  go 0 [] items

and translate_folded fenv a inner : instr list =
  match a with
  | "block" | "loop" ->
      let label, bt, body = parse_block_header fenv inner in
      fenv.labels <- label :: fenv.labels;
      let body_i = translate_instrs fenv body in
      fenv.labels <- List.tl fenv.labels;
      [ (if a = "block" then Block (bt, body_i) else Loop (bt, body_i)) ]
  | "if" ->
      let label, bt, body = parse_block_header fenv inner in
      (* condition instrs (folded), then (then ...) (else ...) *)
      let conds, clauses =
        split_while
          (fun s -> not (is_clause "then" s || is_clause "else" s))
          body
      in
      let cond_i = translate_instrs fenv conds in
      let then_body =
        match List.find_opt (is_clause "then") clauses with
        | Some (List (_ :: b)) -> b
        | _ -> fail "if requires (then ...)"
      in
      let else_body =
        match List.find_opt (is_clause "else") clauses with
        | Some (List (_ :: b)) -> b
        | _ -> []
      in
      fenv.labels <- label :: fenv.labels;
      let t = translate_instrs fenv then_body in
      let e = translate_instrs fenv else_body in
      fenv.labels <- List.tl fenv.labels;
      cond_i @ [ If (bt, t, e) ]
  | _ ->
      (* folded operator: immediates first, then operand expressions,
         which evaluate before the operator itself. translate_one consumes
         exactly the operator's immediates and leaves the operands. *)
      let instr, operands = translate_one fenv a inner in
      translate_instrs fenv operands @ [ instr ]

(* --- module fields --- *)

(* "$id" -> "id": WAT identifiers become debug names without the sigil,
   matching what wat2wasm emits into the name section. *)
let strip_dollar n = String.sub n 1 (String.length n - 1)

let translate ~(sexps : sexp list) =
  let fields =
    match sexps with
    | [ List (Atom "module" :: fields) ] -> fields
    | fields -> fields
  in
  let env = { func_names = []; global_names = []; type_names = [] } in
  ignore env.type_names;
  let b = Builder.create () in
  (* pass 1: assign indices to imports first, then funcs; also globals *)
  let func_count = ref 0 and global_count = ref 0 in
  let register_func name =
    (match name with
    | Some n -> env.func_names <- (n, !func_count) :: env.func_names
    | None -> ());
    incr func_count
  in
  let register_global name =
    (match name with
    | Some n -> env.global_names <- (n, !global_count) :: env.global_names
    | None -> ());
    incr global_count
  in
  List.iter
    (function
      | List (Atom "import" :: _ :: _ :: [ List (Atom "func" :: r) ]) ->
          let name = match r with Atom n :: _ when n.[0] = '$' -> Some n | _ -> None in
          register_func name
      | _ -> ())
    fields;
  List.iter
    (function
      | List (Atom "func" :: r) ->
          let name = match r with Atom n :: _ when n.[0] = '$' -> Some n | _ -> None in
          register_func name
      | List (Atom "global" :: r) ->
          let name = match r with Atom n :: _ when n.[0] = '$' -> Some n | _ -> None in
          register_global name
      | _ -> ())
    fields;
  (* pass 2: translate fields in order *)
  let deferred_exports = ref [] in
  let handle_field = function
    | List (Atom "import" :: Str im :: Str iname :: [ List (Atom "func" :: r) ]) ->
        let fname, r =
          match r with
          | Atom n :: rest when n.[0] = '$' -> (Some n, rest)
          | _ -> (None, r)
        in
        let sig_items, _ = split_while (fun s -> is_clause "param" s || is_clause "result" s) r in
        let params_c, results_c =
          split_while (fun s -> is_clause "param" s) sig_items
        in
        let params = List.map snd (parse_params params_c) in
        let results = parse_results results_c in
        let idx = Builder.import_func b ~module_:im ~name:iname ~params ~results in
        (match fname with
        | Some n -> Builder.set_func_name b idx (strip_dollar n)
        | None -> ())
    | List (Atom "func" :: r) ->
        let fname, r = match r with
          | Atom n :: rest when n.[0] = '$' -> (Some n, rest)
          | _ -> (None, r)
        in
        (* inline (export "name") *)
        let exports, r =
          split_while (fun s -> is_clause "export" s) r
        in
        let param_clauses, r = split_while (fun s -> is_clause "param" s) r in
        let result_clauses, r = split_while (fun s -> is_clause "result" s) r in
        let local_clauses, body = split_while (fun s -> is_clause "local" s) r in
        let params = parse_params param_clauses in
        let results = parse_results result_clauses in
        let locals =
          List.concat_map
            (function
              | List (Atom "local" :: Atom n :: [ Atom ty ]) when n.[0] = '$' ->
                  [ (Some n, valtype_of_atom ty) ]
              | List (Atom "local" :: tys) ->
                  List.map
                    (function Atom ty -> (None, valtype_of_atom ty) | _ -> fail "bad local")
                    tys
              | _ -> fail "bad local clause")
            local_clauses
        in
        let local_names =
          List.concat
            (List.mapi
               (fun i (n, _) -> match n with Some n -> [ (n, i) ] | None -> [])
               (params @ locals))
        in
        let fenv = { env; locals = local_names; labels = [] } in
        let body_i = translate_instrs fenv body in
        let idx =
          Builder.add_func b ~params:(List.map snd params) ~results
            ~locals:(List.map snd locals) body_i
        in
        (match fname with
        | Some n -> Builder.set_func_name b idx (strip_dollar n)
        | None -> ());
        List.iter
          (function
            | List [ Atom "export"; Str en ] -> Builder.export_func b en idx
            | _ -> fail "bad export clause")
          exports
    | List (Atom "memory" :: r) ->
        let export, r =
          match r with
          | List [ Atom "export"; Str en ] :: rest -> (Some en, rest)
          | _ -> (None, r)
        in
        (match r with
        | [ Atom mn ] -> Builder.add_memory b ?export (int_of_string mn)
        | [ Atom mn; Atom mx ] ->
            Builder.add_memory b ?export ~max:(int_of_string mx) (int_of_string mn)
        | _ -> fail "bad memory")
    | List (Atom "data" :: List off :: strs) ->
        let fenv = { env; locals = []; labels = [] } in
        let off_i = translate_instrs fenv [ List off ] in
        let data =
          String.concat ""
            (List.map (function Str s -> s | _ -> fail "bad data") strs)
        in
        (match off_i with
        | [ I32_const o ] -> Builder.add_data b ~offset:(Int32.to_int o) data
        | _ -> fail "data offset must be i32.const")
    | List (Atom "global" :: r) ->
        let _gname, r = match r with
          | Atom n :: rest when n.[0] = '$' -> (Some n, rest)
          | _ -> (None, r)
        in
        let export, r =
          match r with
          | List [ Atom "export"; Str en ] :: rest -> (Some en, rest)
          | _ -> (None, r)
        in
        (match r with
        | [ ty; List init ] ->
            let mut, vt =
              match ty with
              | Atom t -> (Const, valtype_of_atom t)
              | List [ Atom "mut"; Atom t ] -> (Var, valtype_of_atom t)
              | _ -> fail "bad global type"
            in
            let fenv = { env; locals = []; labels = [] } in
            let init_i = translate_instrs fenv [ List init ] in
            ignore (Builder.add_global b ?export ~mut vt init_i)
        | _ -> fail "bad global")
    | List (Atom "table" :: r) -> (
        match r with
        | [ Atom mn; Atom "funcref" ] -> Builder.add_table b (int_of_string mn)
        | [ Atom mn; Atom mx; Atom "funcref" ] ->
            Builder.add_table b ~max:(int_of_string mx) (int_of_string mn)
        | _ -> fail "bad table")
    | List (Atom "elem" :: List off :: names) ->
        let fenv = { env; locals = []; labels = [] } in
        let off_i = translate_instrs fenv [ List off ] in
        let idxs =
          List.map
            (function Atom v -> resolve_idx env.func_names v | _ -> fail "bad elem")
            names
        in
        (match off_i with
        | [ I32_const o ] -> Builder.add_elem b ~offset:(Int32.to_int o) idxs
        | _ -> fail "elem offset must be i32.const")
    | List [ Atom "start"; Atom v ] -> Builder.set_start b (resolve_idx env.func_names v)
    | List [ Atom "export"; Str en; List [ Atom "func"; Atom v ] ] ->
        deferred_exports := (en, v) :: !deferred_exports
    | List (Atom f :: _) -> fail "unsupported module field %s" f
    | _ -> fail "bad module field"
  in
  List.iter handle_field fields;
  List.iter
    (fun (en, v) -> Builder.export_func b en (resolve_idx env.func_names v))
    !deferred_exports;
  Builder.build b

let parse src = translate ~sexps:(parse_sexps (lex src))
