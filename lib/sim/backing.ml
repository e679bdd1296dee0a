type mem_file = { mutable data : Bytes.t; mutable len : int }

type impl =
  | Memory of (string, mem_file) Hashtbl.t
  | Directory of string
  | Logged of Crashpoint.log * impl

type t = impl

let memory () = Memory (Hashtbl.create 16)

let directory root =
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  Directory root

let logged log inner = Logged (log, inner)

(* Keys may contain '/'; encode them so everything stays flat in [root].
   A leading '.' is encoded too, so the keys "." and ".." (which would
   name the root itself or escape it) and "" (which would vanish) map to
   ordinary files. The scheme stays injective: '%' is itself escaped, so
   no plain key can collide with an encoded one. *)
let encode_key key =
  if key = "" then "%empty"
  else begin
    let b = Buffer.create (String.length key) in
    String.iteri
      (fun i c ->
        match c with
        | '/' -> Buffer.add_string b "%2f"
        | '%' -> Buffer.add_string b "%25"
        | '.' when i = 0 -> Buffer.add_string b "%2e"
        | c -> Buffer.add_char b c)
      key;
    Buffer.contents b
  end

let host_path root key = Filename.concat root (encode_key key)

let mem_get tbl key =
  match Hashtbl.find_opt tbl key with
  | Some f -> f
  | None ->
      let f = { data = Bytes.create 4096; len = 0 } in
      Hashtbl.add tbl key f;
      f

let mem_ensure f n =
  if n > Bytes.length f.data then begin
    let cap = max n (2 * Bytes.length f.data) in
    let grown = Bytes.make cap '\000' in
    Bytes.blit f.data 0 grown 0 f.len;
    f.data <- grown
  end;
  (* Zero any gap between the current end and the write position. *)
  if n > f.len then Bytes.fill f.data f.len (n - f.len) '\000'

let rec read t key ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "Backing.read";
  match t with
  | Logged (_, inner) -> read inner key ~pos ~len
  | Memory tbl -> (
      match Hashtbl.find_opt tbl key with
      | None -> ""
      | Some f ->
          if pos >= f.len then ""
          else Bytes.sub_string f.data pos (min len (f.len - pos)))
  | Directory root -> (
      let path = host_path root key in
      if not (Sys.file_exists path) then ""
      else begin
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let n = in_channel_length ic in
            if pos >= n then ""
            else begin
              seek_in ic pos;
              really_input_string ic (min len (n - pos))
            end)
      end)

let rec write t key ~pos data =
  if pos < 0 then invalid_arg "Backing.write";
  match t with
  | Logged (log, inner) ->
      Crashpoint.record log (Crashpoint.Write { file = key; pos; data });
      write inner key ~pos data
  | Memory tbl ->
      let f = mem_get tbl key in
      let endpos = pos + String.length data in
      mem_ensure f endpos;
      Bytes.blit_string data 0 f.data pos (String.length data);
      f.len <- max f.len endpos
  | Directory root ->
      let path = host_path root key in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          let b = Bytes.unsafe_of_string data in
          let rec loop off remaining =
            if remaining > 0 then begin
              let n = Unix.write fd b off remaining in
              loop (off + n) (remaining - n)
            end
          in
          loop 0 (Bytes.length b);
          (* an empty write past the end still zero-extends, as in memory *)
          if data = "" && (Unix.fstat fd).Unix.st_size < pos then Unix.ftruncate fd pos)

let rec size t key =
  match t with
  | Logged (_, inner) -> size inner key
  | Memory tbl -> Option.map (fun f -> f.len) (Hashtbl.find_opt tbl key)
  | Directory root ->
      let path = host_path root key in
      if Sys.file_exists path then Some (Unix.stat path).Unix.st_size else None

let exists t key = size t key <> None

let rec delete t key =
  match t with
  | Logged (log, inner) ->
      Crashpoint.record log (Crashpoint.Delete { file = key });
      delete inner key
  | Memory tbl ->
      let existed = Hashtbl.mem tbl key in
      Hashtbl.remove tbl key;
      existed
  | Directory root ->
      let path = host_path root key in
      if Sys.file_exists path then begin
        Sys.remove path;
        true
      end
      else false

let rec truncate t key n =
  match t with
  | Logged (log, inner) ->
      Crashpoint.record log (Crashpoint.Truncate { file = key; size = n });
      truncate inner key n
  | Memory tbl -> (
      match Hashtbl.find_opt tbl key with
      | None -> ()
      | Some f -> if f.len > n then f.len <- n)
  | Directory root -> (
      (* truncation only shrinks, as in memory *)
      match size t key with Some len when len > n -> Unix.truncate (host_path root key) n | _ -> ())

let rec list t =
  match t with
  | Logged (_, inner) -> list inner
  | Memory tbl -> Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare
  | Directory root -> Array.to_list (Sys.readdir root) |> List.sort String.compare

let sync t key =
  match t with
  | Logged (log, _) -> Crashpoint.record log (Crashpoint.Sync { file = key })
  | Memory _ | Directory _ -> ()

(* --- prefix replay of a crash-point log --- *)

let apply t = function
  | Crashpoint.Write { file; pos; data } -> write t file ~pos data
  | Crashpoint.Truncate { file; size } -> truncate t file size
  | Crashpoint.Delete { file } -> ignore (delete t file)
  | Crashpoint.Sync _ -> ()

let torn_write = function
  | Crashpoint.Write { file; pos; data } when data <> "" ->
      Some (Crashpoint.Write { file; pos; data = String.sub data 0 (String.length data / 2) })
  | _ -> None

let replay ?(torn = false) log ~at =
  let n = Crashpoint.length log in
  if at < 0 || at > n then invalid_arg "Backing.replay: prefix out of range";
  let t = memory () in
  let all = Crashpoint.ops log in
  List.iteri (fun i op -> if i < at then apply t op) all;
  (if torn && at < n then
     match torn_write (List.nth all at) with Some w -> apply t w | None -> ());
  t

(* Same generator family as Fault's, reseeded per replay so the dropped
   subset is a pure function of (seed, prefix). *)
let replay_unsynced ~seed log ~at =
  if at < 0 || at > Crashpoint.length log then
    invalid_arg "Backing.replay_unsynced: out of range";
  let t = memory () in
  let prefix = List.filteri (fun i _ -> i < at) (Crashpoint.ops log) in
  (* index of the op after the last sync barrier within the prefix *)
  let barrier =
    List.fold_left
      (fun (i, b) op -> (i + 1, match op with Crashpoint.Sync _ -> i + 1 | _ -> b))
      (0, 0) prefix
    |> snd
  in
  let state = ref (Fault.hash_seed (seed ^ ":" ^ string_of_int at)) in
  let keep () =
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    Int64.logand (Int64.mul x 0x2545f4914f6cdd1dL) 1L = 0L
  in
  List.iteri
    (fun i op ->
      match op with
      | Crashpoint.Write _ when i >= barrier -> if keep () then apply t op
      | _ -> apply t op)
    prefix;
  t
