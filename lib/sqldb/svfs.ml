(* Storage VFS: the seam between the database and its storage medium,
   mirroring SQLite's VFS layer (§V-C uses test_demovfs over WASI). The
   pager is the only client. Plain stored bytes — memory, a host
   directory, or a crash-point log — come through [of_backing], over the
   same [Twine_sim.Backing] store that holds the protected file system's
   ciphertext; the twine library builds the protected-file and costed
   I/O implementations on the same records. *)

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

(* Each file is the store's key of the same name. Opening and closing
   hold nothing, so a file exists once it is written; the pager writes
   every file it opens before anything asks whether that file exists. *)
let of_backing b =
  let module B = Twine_sim.Backing in
  {
    v_open =
      (fun name ->
        {
          v_read = (fun ~pos ~len -> B.read b name ~pos ~len);
          v_write = (fun ~pos s -> B.write b name ~pos s);
          v_truncate = (fun n -> B.truncate b name n);
          v_size = (fun () -> Option.value (B.size b name) ~default:0);
          v_sync = (fun () -> B.sync b name);
          v_close = (fun () -> ());
        });
    v_delete = (fun name -> ignore (B.delete b name));
    v_exists = B.exists b;
  }
