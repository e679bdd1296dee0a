(* Recursive-descent SQL parser over Token.t. *)

open Sql_ast

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* [params]: the [?] parameters of the statement read so far. *)
type state = { mutable toks : Token.t list; mutable params : int }

let peek st = match st.toks with t :: _ -> t | [] -> Token.Eof

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let next st =
  let t = peek st in
  advance st;
  t

let describe = function
  | Token.Ident s -> Printf.sprintf "identifier %S" s
  | Token.Keyword k -> k
  | Token.Int_lit v -> Int64.to_string v
  | Token.Float_lit f -> string_of_float f
  | Token.String_lit s -> Printf.sprintf "%S" s
  | Token.Blob_lit _ -> "blob literal"
  | Token.Punct p -> Printf.sprintf "%S" p
  | Token.Eof -> "end of input"

let expect_kw st kw =
  match next st with
  | Token.Keyword k when k = kw -> ()
  | t -> fail "expected %s, got %s" kw (describe t)

let expect_punct st p =
  match next st with
  | Token.Punct q when q = p -> ()
  | t -> fail "expected %S, got %s" p (describe t)

let accept_kw st kw =
  match peek st with
  | Token.Keyword k when k = kw ->
      advance st;
      true
  | _ -> false

let accept_punct st p =
  match peek st with
  | Token.Punct q when q = p ->
      advance st;
      true
  | _ -> false

let ident st =
  match next st with
  | Token.Ident s -> s
  (* allow non-reserved keywords used as identifiers where unambiguous *)
  | Token.Keyword k -> String.lowercase_ascii k
  | t -> fail "expected identifier, got %s" (describe t)

(* --- expressions (precedence climbing) --- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while accept_kw st "OR" do
    lhs := Binop (Or, !lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while accept_kw st "AND" do
    lhs := Binop (And, !lhs, parse_not st)
  done;
  !lhs

and parse_not st =
  if accept_kw st "NOT" then Not (parse_not st) else parse_predicate st

and parse_predicate st =
  let lhs = parse_cmp st in
  match peek st with
  | Token.Keyword "IS" ->
      advance st;
      let negated = accept_kw st "NOT" in
      expect_kw st "NULL";
      Is_null (lhs, not negated)
  | Token.Keyword "BETWEEN" ->
      advance st;
      let lo = parse_cmp st in
      expect_kw st "AND";
      let hi = parse_cmp st in
      Between (lhs, lo, hi)
  | Token.Keyword "NOT" ->
      advance st;
      if accept_kw st "IN" then Not (parse_in st lhs)
      else if accept_kw st "BETWEEN" then begin
        let lo = parse_cmp st in
        expect_kw st "AND";
        let hi = parse_cmp st in
        Not (Between (lhs, lo, hi))
      end
      else if accept_kw st "LIKE" then Not (Like (lhs, parse_cmp st))
      else fail "expected IN/BETWEEN/LIKE after NOT"
  | Token.Keyword "IN" ->
      advance st;
      parse_in st lhs
  | Token.Keyword "LIKE" ->
      advance st;
      Like (lhs, parse_cmp st)
  | _ -> lhs

and parse_in st lhs =
  expect_punct st "(";
  let items = ref [] in
  if not (accept_punct st ")") then begin
    items := [ parse_expr st ];
    while accept_punct st "," do
      items := parse_expr st :: !items
    done;
    expect_punct st ")"
  end;
  In_list (lhs, List.rev !items)

and parse_cmp st =
  let lhs = ref (parse_additive st) in
  let rec go () =
    match peek st with
    | Token.Punct "=" -> advance st; lhs := Binop (Eq, !lhs, parse_additive st); go ()
    | Token.Punct ("!=" | "<>") -> advance st; lhs := Binop (Ne, !lhs, parse_additive st); go ()
    | Token.Punct "<" -> advance st; lhs := Binop (Lt, !lhs, parse_additive st); go ()
    | Token.Punct "<=" -> advance st; lhs := Binop (Le, !lhs, parse_additive st); go ()
    | Token.Punct ">" -> advance st; lhs := Binop (Gt, !lhs, parse_additive st); go ()
    | Token.Punct ">=" -> advance st; lhs := Binop (Ge, !lhs, parse_additive st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let rec go () =
    match peek st with
    | Token.Punct "+" -> advance st; lhs := Binop (Add, !lhs, parse_multiplicative st); go ()
    | Token.Punct "-" -> advance st; lhs := Binop (Sub, !lhs, parse_multiplicative st); go ()
    | Token.Punct "||" -> advance st; lhs := Binop (Concat, !lhs, parse_multiplicative st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let rec go () =
    match peek st with
    | Token.Punct "*" -> advance st; lhs := Binop (Mul, !lhs, parse_unary st); go ()
    | Token.Punct "/" -> advance st; lhs := Binop (Div, !lhs, parse_unary st); go ()
    | Token.Punct "%" -> advance st; lhs := Binop (Mod, !lhs, parse_unary st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_unary st =
  if accept_punct st "-" then Neg (parse_unary st)
  else if accept_punct st "+" then parse_unary st
  else parse_atom st

and parse_atom st =
  match next st with
  | Token.Int_lit v -> Lit (Value.Int v)
  | Token.Float_lit f -> Lit (Value.Real f)
  | Token.String_lit s -> Lit (Value.Text s)
  | Token.Blob_lit s -> Lit (Value.Blob s)
  | Token.Keyword "NULL" -> Lit Value.Null
  | Token.Punct "?" ->
      st.params <- st.params + 1;
      Param st.params
  | Token.Keyword "CASE" -> parse_case st
  | Token.Keyword "CAST" ->
      expect_punct st "(";
      let e = parse_expr st in
      expect_kw st "AS";
      let ty =
        match next st with
        | Token.Keyword k -> k
        | Token.Ident s -> String.uppercase_ascii s
        | t -> fail "expected type name, got %s" (describe t)
      in
      expect_punct st ")";
      Cast (e, ty)
  | Token.Punct "(" ->
      let e = parse_expr st in
      expect_punct st ")";
      e
  | Token.Punct "*" -> Star
  | Token.Ident name -> parse_postfix_ident st name
  | Token.Keyword ("LIKE" | "KEY" as k) -> parse_postfix_ident st (String.lowercase_ascii k)
  | t -> fail "unexpected %s in expression" (describe t)

and parse_postfix_ident st name =
  if accept_punct st "(" then begin
    (* function call; the count-star form is allowed *)
    let args = ref [] in
    let distinct = accept_kw st "DISTINCT" in
    ignore distinct;
    if not (accept_punct st ")") then begin
      args := [ parse_expr st ];
      while accept_punct st "," do
        args := parse_expr st :: !args
      done;
      expect_punct st ")"
    end;
    Call (String.lowercase_ascii name, List.rev !args)
  end
  else if accept_punct st "." then begin
    let col = ident st in
    Column (Some name, col)
  end
  else Column (None, name)

and parse_case st =
  let arms = ref [] in
  let rec arms_loop () =
    if accept_kw st "WHEN" then begin
      let c = parse_expr st in
      expect_kw st "THEN";
      let v = parse_expr st in
      arms := (c, v) :: !arms;
      arms_loop ()
    end
  in
  arms_loop ();
  let else_ = if accept_kw st "ELSE" then Some (parse_expr st) else None in
  expect_kw st "END";
  Case (List.rev !arms, else_)

(* --- statements --- *)

let parse_order_items st =
  let item () =
    let e = parse_expr st in
    let desc = if accept_kw st "DESC" then true else (ignore (accept_kw st "ASC"); false) in
    { ord_expr = e; ord_desc = desc }
  in
  let items = ref [ item () ] in
  while accept_punct st "," do
    items := item () :: !items
  done;
  List.rev !items

(* An optional alias, with or without AS, after a result column or a
   table name. *)
let parse_alias st =
  if accept_kw st "AS" then Some (ident st)
  else
    match peek st with
    | Token.Ident a ->
        advance st;
        Some a
    | _ -> None

let parse_select st =
  let distinct = accept_kw st "DISTINCT" in
  let sel_expr () =
    let e = parse_expr st in
    (e, parse_alias st)
  in
  let exprs = ref [ sel_expr () ] in
  while accept_punct st "," do
    exprs := sel_expr () :: !exprs
  done;
  let from, joins =
    if accept_kw st "FROM" then begin
      let tbl = ident st in
      let alias = parse_alias st in
      let joins = ref [] in
      let rec join_loop () =
        let is_join =
          if accept_kw st "JOIN" then true
          else if accept_kw st "INNER" then begin
            expect_kw st "JOIN";
            true
          end
          else false
        in
        if is_join then begin
          let jt = ident st in
          let jalias = parse_alias st in
          let on = if accept_kw st "ON" then Some (parse_expr st) else None in
          joins := { jt_table = jt; jt_alias = jalias; jt_on = on } :: !joins;
          join_loop ()
        end
      in
      join_loop ();
      (Some (tbl, alias), List.rev !joins)
    end
    else (None, [])
  in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  let group =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let es = ref [ parse_expr st ] in
      while accept_punct st "," do
        es := parse_expr st :: !es
      done;
      List.rev !es
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_expr st) else None in
  let order =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      parse_order_items st
    end
    else []
  in
  let limit = if accept_kw st "LIMIT" then Some (parse_expr st) else None in
  let offset = if accept_kw st "OFFSET" then Some (parse_expr st) else None in
  {
    sel_exprs = List.rev !exprs;
    sel_distinct = distinct;
    sel_from = from;
    sel_joins = joins;
    sel_where = where;
    sel_group = group;
    sel_having = having;
    sel_order = order;
    sel_limit = limit;
    sel_offset = offset;
  }

let parse_column_def st =
  let col_name = ident st in
  let col_type =
    match peek st with
    | Token.Keyword ("INTEGER" | "INT") ->
        advance st;
        "INTEGER"
    | Token.Keyword (("TEXT" | "REAL" | "BLOB") as k) ->
        advance st;
        k
    | Token.Ident ty ->
        advance st;
        String.uppercase_ascii ty
    | _ -> ""
  in
  let pk = ref false and not_null = ref false and default = ref None in
  let rec constraints () =
    if accept_kw st "PRIMARY" then begin
      expect_kw st "KEY";
      ignore (accept_kw st "AUTOINCREMENT");
      pk := true;
      constraints ()
    end
    else if accept_kw st "NOT" then begin
      expect_kw st "NULL";
      not_null := true;
      constraints ()
    end
    else if accept_kw st "DEFAULT" then begin
      let params = st.params in
      default := Some (parse_unary st);
      if st.params > params then fail "default value of column %s is not constant" col_name;
      constraints ()
    end
    else if accept_kw st "UNIQUE" then constraints ()
  in
  constraints ();
  {
    col_name;
    col_type;
    col_pk = !pk;
    col_not_null = !not_null;
    col_default = !default;
  }

let rec parse_stmt st =
  match next st with
  | Token.Keyword "EXPLAIN" ->
      (* EXPLAIN [ANALYZE] <stmt>: the prefix applies to exactly one
         statement; nesting is rejected at execution, not here. A bare
         "EXPLAIN ANALYZE" (nothing after the flag) explains the ANALYZE
         statement itself. *)
      let analyze = accept_kw st "ANALYZE" in
      if analyze && (peek st = Token.Eof || peek st = Token.Punct ";") then
        Explain { ex_analyze = false; ex_stmt = Analyze }
      else Explain { ex_analyze = analyze; ex_stmt = parse_stmt st }
  | Token.Keyword "SELECT" -> Select (parse_select st)
  | Token.Keyword "INSERT" ->
      expect_kw st "INTO";
      let tbl = ident st in
      let cols =
        if accept_punct st "(" then begin
          let cs = ref [ ident st ] in
          while accept_punct st "," do
            cs := ident st :: !cs
          done;
          expect_punct st ")";
          List.rev !cs
        end
        else []
      in
      expect_kw st "VALUES";
      let row () =
        expect_punct st "(";
        let es = ref [ parse_expr st ] in
        while accept_punct st "," do
          es := parse_expr st :: !es
        done;
        expect_punct st ")";
        List.rev !es
      in
      let rows = ref [ row () ] in
      while accept_punct st "," do
        rows := row () :: !rows
      done;
      Insert { ins_table = tbl; ins_columns = cols; ins_rows = List.rev !rows }
  | Token.Keyword "UPDATE" ->
      let tbl = ident st in
      expect_kw st "SET";
      let set () =
        let c = ident st in
        expect_punct st "=";
        (c, parse_expr st)
      in
      let sets = ref [ set () ] in
      while accept_punct st "," do
        sets := set () :: !sets
      done;
      let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
      Update { upd_table = tbl; upd_sets = List.rev !sets; upd_where = where }
  | Token.Keyword "DELETE" ->
      expect_kw st "FROM";
      let tbl = ident st in
      let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
      Delete { del_table = tbl; del_where = where }
  | Token.Keyword "CREATE" ->
      let unique = accept_kw st "UNIQUE" in
      if accept_kw st "TABLE" then begin
        let ine = accept_kw st "IF" in
        if ine then begin
          expect_kw st "NOT";
          expect_kw st "EXISTS"
        end;
        let name = ident st in
        expect_punct st "(";
        let cols = ref [ parse_column_def st ] in
        while accept_punct st "," do
          (* table-level PRIMARY KEY(...) clause *)
          if accept_kw st "PRIMARY" then begin
            expect_kw st "KEY";
            expect_punct st "(";
            let pk_col = ident st in
            expect_punct st ")";
            cols :=
              List.map
                (fun c -> if c.col_name = pk_col then { c with col_pk = true } else c)
                !cols
          end
          else cols := parse_column_def st :: !cols
        done;
        expect_punct st ")";
        Create_table { ct_name = name; ct_if_not_exists = ine; ct_columns = List.rev !cols }
      end
      else begin
        expect_kw st "INDEX";
        let ine = accept_kw st "IF" in
        if ine then begin
          expect_kw st "NOT";
          expect_kw st "EXISTS"
        end;
        let name = ident st in
        expect_kw st "ON";
        let tbl = ident st in
        expect_punct st "(";
        let cs = ref [ ident st ] in
        while accept_punct st "," do
          cs := ident st :: !cs
        done;
        expect_punct st ")";
        Create_index
          {
            ci_name = name;
            ci_table = tbl;
            ci_columns = List.rev !cs;
            ci_unique = unique;
            ci_if_not_exists = ine;
          }
      end
  | Token.Keyword "DROP" ->
      if accept_kw st "TABLE" then begin
        let ie = accept_kw st "IF" in
        if ie then expect_kw st "EXISTS";
        Drop_table { dt_name = ident st; dt_if_exists = ie }
      end
      else begin
        expect_kw st "INDEX";
        let ie = accept_kw st "IF" in
        if ie then expect_kw st "EXISTS";
        Drop_index { di_name = ident st; di_if_exists = ie }
      end
  | Token.Keyword "BEGIN" ->
      ignore (accept_kw st "TRANSACTION");
      Begin
  | Token.Keyword "COMMIT" -> Commit
  | Token.Keyword "ROLLBACK" -> Rollback
  | Token.Keyword "PRAGMA" ->
      let name = ident st in
      let v =
        if accept_punct st "=" then
          match next st with
          | Token.Int_lit v -> Some (Value.Int v)
          | Token.Float_lit f -> Some (Value.Real f)
          | Token.String_lit s | Token.Ident s -> Some (Value.Text s)
          | t -> fail "bad pragma value %s" (describe t)
        else None
      in
      Pragma (String.lowercase_ascii name, v)
  | Token.Keyword "ANALYZE" -> Analyze
  | Token.Keyword "VACUUM" -> Vacuum
  | t -> fail "expected statement, got %s" (describe t)

(* Each statement of [sql] with the number of its [?] parameters, which
   it numbers from 1. *)
let statements sql =
  let st = { toks = Token.tokenize sql; params = 0 } in
  let stmts = ref [] in
  let rec go () =
    match peek st with
    | Token.Eof -> ()
    | Token.Punct ";" ->
        advance st;
        go ()
    | _ ->
        st.params <- 0;
        let stmt = parse_stmt st in
        stmts := (stmt, st.params) :: !stmts;
        (match peek st with
        | Token.Punct ";" | Token.Eof -> ()
        | t -> fail "unexpected %s after statement" (describe t));
        go ()
  in
  go ();
  List.rev !stmts

let parse sql = List.map fst (statements sql)

(* --- expressions back to text --- *)

(* 17 significant digits, with a point or an exponent so the text reads
   back as a real; a literal past the largest float reads as infinity. *)
let real_sql f =
  if f = Float.infinity then "1e999"
  else
    let s = Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* SQL text that {!expr_of_string} reads back as [e]: every operator
   in parentheses, text quoted with its quotes doubled, identifiers in
   double quotes. The parser never makes a negative literal, so a
   literal's text has no sign. *)
let rec to_sql e =
  let paren parts = "(" ^ String.concat " " parts ^ ")" in
  let list es = String.concat ", " (List.map to_sql es) in
  let quote n = "\"" ^ n ^ "\"" in
  match e with
  | Lit Value.Null -> "NULL"
  | Lit (Value.Int i) -> Int64.to_string i
  | Lit (Value.Real f) -> real_sql f
  | Lit (Value.Text s) ->
      "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Lit (Value.Blob s) -> "x'" ^ Twine_crypto.Hexcodec.encode s ^ "'"
  | Param _ -> "?"
  | Column (None, n) -> quote n
  | Column (Some q, n) -> quote q ^ "." ^ quote n
  | Star -> "*"
  | Binop (op, a, b) -> paren [ to_sql a; binop_text op; to_sql b ]
  | Not a -> paren [ "NOT"; to_sql a ]
  | Neg a -> "(-" ^ to_sql a ^ ")"
  | Is_null (a, pos) -> paren [ to_sql a; (if pos then "IS NULL" else "IS NOT NULL") ]
  | Between (a, lo, hi) -> paren [ to_sql a; "BETWEEN"; to_sql lo; "AND"; to_sql hi ]
  | In_list (a, es) -> paren [ to_sql a; "IN"; "(" ^ list es ^ ")" ]
  | Like (a, p) -> paren [ to_sql a; "LIKE"; to_sql p ]
  | Call (n, args) -> n ^ "(" ^ list args ^ ")"
  | Case (arms, d) ->
      String.concat " "
        (("CASE" :: List.concat_map (fun (c, v) -> [ "WHEN"; to_sql c; "THEN"; to_sql v ]) arms)
        @ (match d with Some d -> [ "ELSE"; to_sql d ] | None -> [])
        @ [ "END" ])
  | Cast (a, ty) -> "CAST(" ^ to_sql a ^ " AS " ^ ty ^ ")"
  | Bound (_, e) -> to_sql e

(* The one expression [s] holds. *)
let expr_of_string s =
  let st = { toks = Token.tokenize s; params = 0 } in
  let e = parse_expr st in
  if peek st <> Token.Eof then fail "unexpected %s after expression" (describe (peek st));
  e
