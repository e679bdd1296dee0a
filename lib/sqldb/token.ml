(* SQL tokenizer. Keywords are case-insensitive; identifiers may be
   double-quoted; strings use single quotes with '' escaping; blobs are
   x'hex' literals. *)

type t =
  | Ident of string
  | Keyword of string  (* uppercased *)
  | Int_lit of int64
  | Float_lit of float
  | String_lit of string
  | Blob_lit of string
  | Punct of string  (* ( ) , ; . * = != <> < <= > >= + - / % || ? *)
  | Eof

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET";
    "DELETE"; "CREATE"; "TABLE"; "INDEX"; "UNIQUE"; "ON"; "DROP"; "IF";
    "EXISTS"; "NOT"; "NULL"; "PRIMARY"; "KEY"; "INTEGER"; "INT"; "TEXT";
    "REAL"; "BLOB"; "AND"; "OR"; "IS"; "IN"; "BETWEEN"; "LIKE"; "ORDER";
    "BY"; "ASC"; "DESC"; "LIMIT"; "OFFSET"; "GROUP"; "JOIN"; "INNER";
    "LEFT"; "OUTER"; "AS"; "DISTINCT"; "BEGIN"; "COMMIT"; "ROLLBACK";
    "TRANSACTION"; "PRAGMA"; "ANALYZE"; "DEFAULT"; "HAVING"; "CASE"; "WHEN";
    "THEN"; "ELSE"; "END"; "CAST"; "VACUUM"; "EXPLAIN"; "AUTOINCREMENT" ]

let keyword_table =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let emit t = toks := t :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (src.[!i] = '*' && src.[!i + 1] = '/') do incr i done;
      i := !i + 2
    end
    else if (c = 'x' || c = 'X') && !i + 1 < n && src.[!i + 1] = '\'' then begin
      (* blob literal *)
      let close = try String.index_from src (!i + 2) '\'' with Not_found -> fail "unterminated blob" in
      let hex = String.sub src (!i + 2) (close - !i - 2) in
      emit (Blob_lit (Twine_crypto.Hexcodec.decode hex));
      i := close + 1
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      let upper = String.uppercase_ascii word in
      if Hashtbl.mem keyword_table upper then emit (Keyword upper) else emit (Ident word)
    end
    else if c = '"' then begin
      let close = try String.index_from src (!i + 1) '"' with Not_found -> fail "unterminated identifier" in
      emit (Ident (String.sub src (!i + 1) (close - !i - 1)));
      i := close + 1
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let start = !i in
      while !i < n && (is_digit src.[!i] || src.[!i] = '.' || src.[!i] = 'e'
                       || src.[!i] = 'E'
                       || ((src.[!i] = '+' || src.[!i] = '-')
                          && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E'))) do
        incr i
      done;
      let lit = String.sub src start (!i - start) in
      (match Int64.of_string_opt lit with
      | Some v -> emit (Int_lit v)
      | None -> (
          match float_of_string_opt lit with
          | Some f -> emit (Float_lit f)
          | None -> fail "bad numeric literal %S" lit))
    end
    else if c = '\'' then begin
      (* string with '' escapes *)
      let b = Buffer.create 16 in
      incr i;
      let rec go () =
        if !i >= n then fail "unterminated string";
        if src.[!i] = '\'' then
          if !i + 1 < n && src.[!i + 1] = '\'' then begin
            Buffer.add_char b '\'';
            i := !i + 2;
            go ()
          end
          else incr i
        else begin
          Buffer.add_char b src.[!i];
          incr i;
          go ()
        end
      in
      go ();
      emit (String_lit (Buffer.contents b))
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "!=" | "<>" | "<=" | ">=" | "||" ->
          emit (Punct two);
          i := !i + 2
      | _ -> (
          match c with
          | '(' | ')' | ',' | ';' | '.' | '*' | '=' | '<' | '>' | '+' | '-'
          | '/' | '%' | '?' ->
              emit (Punct (String.make 1 c));
              incr i
          | _ -> fail "unexpected character %C" c)
    end
  done;
  emit Eof;
  List.rev !toks
