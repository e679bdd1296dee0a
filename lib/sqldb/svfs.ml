(* Storage VFS: the seam between the database and its storage medium,
   mirroring SQLite's VFS layer (§V-C uses test_demovfs over WASI). The
   pager is the only client. Implementations provided elsewhere: host
   files, WASI files, and IPFS protected files (in the twine library). *)

type file = {
  v_read : pos:int -> len:int -> string;
      (** short read at EOF; absent bytes read as "" *)
  v_write : pos:int -> string -> unit;
  v_truncate : int -> unit;
  v_size : unit -> int;
  v_sync : unit -> unit;
  v_close : unit -> unit;
}

type t = {
  v_open : string -> file;
  v_delete : string -> unit;
  v_exists : string -> bool;
}

(* In-memory implementation (also the ":memory:" database backend). *)
let memory () =
  let tbl : (string, Bytes.t ref * int ref) Hashtbl.t = Hashtbl.create 4 in
  let get path =
    match Hashtbl.find_opt tbl path with
    | Some f -> f
    | None ->
        let f = (ref (Bytes.create 4096), ref 0) in
        Hashtbl.replace tbl path f;
        f
  in
  {
    v_open =
      (fun path ->
        let data, len = get path in
        let ensure n =
          if n > Bytes.length !data then begin
            let grown = Bytes.make (max n (2 * Bytes.length !data)) '\000' in
            Bytes.blit !data 0 grown 0 !len;
            data := grown
          end;
          if n > !len then Bytes.fill !data !len (n - !len) '\000'
        in
        {
          v_read =
            (fun ~pos ~len:l ->
              if pos >= !len then ""
              else Bytes.sub_string !data pos (min l (!len - pos)));
          v_write =
            (fun ~pos s ->
              ensure (pos + String.length s);
              Bytes.blit_string s 0 !data pos (String.length s);
              if pos + String.length s > !len then len := pos + String.length s);
          v_truncate = (fun n -> if n < !len then len := n);
          v_size = (fun () -> !len);
          v_sync = (fun () -> ());
          v_close = (fun () -> ());
        });
    v_delete = (fun path -> Hashtbl.remove tbl path);
    v_exists = (fun path -> Hashtbl.mem tbl path);
  }

(* Host file system implementation (plain, unprotected files). *)
let os root =
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let path_of name = Filename.concat root name in
  {
    v_open =
      (fun name ->
        let path = path_of name in
        let fd =
          Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
        in
        {
          v_read =
            (fun ~pos ~len ->
              ignore (Unix.lseek fd pos Unix.SEEK_SET);
              let buf = Bytes.create len in
              let rec go off =
                if off >= len then len
                else
                  let n = Unix.read fd buf off (len - off) in
                  if n = 0 then off else go (off + n)
              in
              let got = go 0 in
              Bytes.sub_string buf 0 got);
          v_write =
            (fun ~pos s ->
              ignore (Unix.lseek fd pos Unix.SEEK_SET);
              let b = Bytes.unsafe_of_string s in
              let rec go off =
                if off < Bytes.length b then
                  go (off + Unix.write fd b off (Bytes.length b - off))
              in
              go 0);
          v_truncate = (fun n -> Unix.ftruncate fd n);
          v_size = (fun () -> (Unix.fstat fd).Unix.st_size);
          v_sync = (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ());
          v_close = (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
        });
    v_delete = (fun name -> try Sys.remove (path_of name) with Sys_error _ -> ());
    v_exists = (fun name -> Sys.file_exists (path_of name));
  }

(* Crash-exploration wrapper: records every mutation into a crash-point
   op log (reads are not logged). *)
let recording log inner =
  let open Twine_sim in
  {
    v_open =
      (fun path ->
        let f = inner.v_open path in
        {
          v_read = f.v_read;
          v_write =
            (fun ~pos data ->
              Crashpoint.record log (Crashpoint.Write { file = path; pos; data });
              f.v_write ~pos data);
          v_truncate =
            (fun n ->
              Crashpoint.record log (Crashpoint.Truncate { file = path; size = n });
              f.v_truncate n);
          v_size = f.v_size;
          v_sync =
            (fun () ->
              Crashpoint.record log (Crashpoint.Sync { file = path });
              f.v_sync ());
          v_close = f.v_close;
        });
    v_delete =
      (fun path ->
        Crashpoint.record log (Crashpoint.Delete { file = path });
        inner.v_delete path);
    v_exists = inner.v_exists;
  }
