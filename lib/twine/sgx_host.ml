(* The SGX-tailored WASI host (paper §IV-C/§IV-D).

   Instead of plainly forwarding every WASI call to the OS through an
   OCALL (what stock WAMR does), calls are split into:

   - trusted implementations: file-system calls go to the Intel Protected
     File System (transparent encryption, in-enclave node cache),
     randomness comes from the enclave DRBG, monotonic time is fetched
     outside but guarded to never go backwards;
   - generic calls: charged as an OCALL round-trip to an untrusted
     POSIX-like library, disabled entirely in [strict] mode. *)

open Twine_sgx
open Twine_ipfs
open Twine_wasi

(* WASI Vfs.dir over a protected file system instance. Metadata files are
   hidden from listings; fd positions map to protected-file positions;
   seeking past EOF pads with zeros, working around sgx_fseek (§IV-E). *)
let protected_dir (fs : Protected_fs.t) : Vfs.dir =
  let wrap_file (f : Protected_fs.file) : Vfs.file =
    let pad_to target =
      let size = Protected_fs.file_size f in
      if target > size then begin
        ignore (Protected_fs.seek f ~offset:0 ~whence:`End);
        ignore (Protected_fs.write f (String.make (target - size) '\000'))
      end
    in
    {
      Vfs.f_read =
        (fun dst ~off ~len ->
          let tmp = Bytes.create len in
          let n = Protected_fs.read f tmp ~off:0 ~len in
          Bytes.blit tmp 0 dst off n;
          Ok n);
      f_pread =
        (fun dst ~off ~len ~pos ->
          let saved = Protected_fs.tell f in
          let result =
            match Protected_fs.seek f ~offset:pos ~whence:`Set with
            | Error _ -> Ok 0  (* reading past EOF yields nothing *)
            | Ok _ ->
                let tmp = Bytes.create len in
                let n = Protected_fs.read f tmp ~off:0 ~len in
                Bytes.blit tmp 0 dst off n;
                Ok n
          in
          ignore (Protected_fs.seek f ~offset:saved ~whence:`Set);
          result);
      f_write = (fun data -> Ok (Protected_fs.write f data));
      f_pwrite =
        (fun data ~pos ->
          let saved = Protected_fs.tell f in
          pad_to pos;
          ignore (Protected_fs.seek f ~offset:pos ~whence:`Set);
          let n = Protected_fs.write f data in
          ignore
            (Protected_fs.seek f
               ~offset:(min saved (Protected_fs.file_size f))
               ~whence:`Set);
          Ok n);
      f_seek =
        (fun ~offset ~whence ->
          match Protected_fs.seek f ~offset ~whence with
          | Ok p -> Ok p
          | Error _ -> (
              (* WASI permits seeking beyond EOF: extend with null bytes *)
              let target =
                match whence with
                | `Set -> offset
                | `Cur -> Protected_fs.tell f + offset
                | `End -> Protected_fs.file_size f + offset
              in
              if target < 0 then Error Errno.einval
              else begin
                pad_to target;
                match Protected_fs.seek f ~offset:target ~whence:`Set with
                | Ok p -> Ok p
                | Error _ -> Error Errno.einval
              end));
      f_tell = (fun () -> Protected_fs.tell f);
      f_size = (fun () -> Protected_fs.file_size f);
      f_set_size =
        (fun n ->
          let size = Protected_fs.file_size f in
          if n > size then pad_to n;
          (* shrinking is not supported by IPFS; accepted as no-op *)
          Ok ());
      f_sync = (fun () -> Protected_fs.flush f);
      f_close = (fun () -> Protected_fs.close f);
    }
  in
  let open_tbl : (string, Protected_fs.file) Hashtbl.t = Hashtbl.create 8 in
  ignore open_tbl;
  {
    Vfs.d_open =
      (fun path ~create ~trunc ~excl ~append ->
        match Vfs.sanitize path with
        | Error e -> Error e
        | Ok path -> (
            let exists = Protected_fs.exists fs path in
            if excl && exists then Error Errno.eexist
            else if (not create) && not exists then Error Errno.enoent
            else
              try
                let mode = if trunc then `Trunc else `Rdwr in
                let f = Protected_fs.open_file fs ~mode path in
                if append then ignore (Protected_fs.seek f ~offset:0 ~whence:`End);
                Ok (wrap_file f)
              with Protected_fs.Integrity_violation _ -> Error Errno.eio));
    d_unlink =
      (fun path ->
        match Vfs.sanitize path with
        | Error e -> Error e
        | Ok path -> if Protected_fs.delete fs path then Ok () else Error Errno.enoent);
    d_create_dir = (fun _ -> Ok ());  (* flat namespace *)
    d_remove_dir = (fun _ -> Ok ());
    d_rename = (fun _ _ -> Error Errno.enotsup);
    d_stat =
      (fun path ->
        match Vfs.sanitize path with
        | Error e -> Error e
        | Ok path ->
            if not (Protected_fs.exists fs path) then Error Errno.enoent
            else begin
              let f = Protected_fs.open_file fs ~mode:`Rdonly path in
              let size = Protected_fs.file_size f in
              Protected_fs.close f;
              Ok { Vfs.st_size = size; st_filetype = Vfs.Regular }
            end);
    d_list = (fun _ -> Ok []);
  }

(* WASI providers for an enclave-hosted runtime. *)
let providers ?(strict = false) (enclave : Enclave.t) : Api.providers =
  let machine = Enclave.machine enclave in
  let last_mono = ref 0L in
  let generic_ocall name f =
    (* generic POSIX layer: leave the enclave, call, come back.
       Transient untrusted-host failures (fault site ["host.ocall"], or
       a [Fault.Transient] surfacing from the host body) are retried a
       bounded number of times; each retry charges virtual backoff time
       under the [fault.retry] ledger account, so retries are visible
       in reports and the conservation audit still balances. *)
    if strict then invalid_arg ("strict mode: untrusted call " ^ name)
    else begin
      let attempt () =
        (match Machine.fault machine "host.ocall" with
        | Some Twine_sim.Fault.Fail ->
            raise (Twine_sim.Fault.Transient ("host.ocall " ^ name))
        | Some Twine_sim.Fault.Crash ->
            raise (Twine_sim.Fault.Crashed ("host.ocall " ^ name))
        | _ -> ());
        f ()
      in
      let call () =
        if Enclave.inside enclave then
          Enclave.ocall enclave ~name:"wasi.ocall" attempt
        else attempt ()
      in
      let rec go tries =
        try call ()
        with Twine_sim.Fault.Transient _ when tries < 3 ->
          Machine.charge machine
            (Machine.meter machine ~account:"fault.retry" "host.retry")
            (1000 * (tries + 1));
          go (tries + 1)
      in
      go 0
    end
  in
  {
    Api.clock_realtime =
      (fun () ->
        generic_ocall "clock_realtime" (fun () ->
            Int64.of_int (Machine.now_ns machine)));
    clock_monotonic =
      (fun () ->
        (* fetched outside, then guarded in-enclave (§IV-C) *)
        let raw =
          generic_ocall "clock_monotonic" (fun () ->
              Int64.of_int (Machine.now_ns machine))
        in
        if Int64.compare raw !last_mono > 0 then last_mono := raw;
        !last_mono);
    random = (fun n -> Enclave.random enclave n);  (* trusted: in-enclave DRBG *)
    stdout = (fun s -> Enclave.copy_out enclave (String.length s));
    stderr = (fun s -> Enclave.copy_out enclave (String.length s));
    on_call =
      (fun name ->
        let meter = Machine.meter machine ~account:("wasi." ^ name) "wasi.dispatch" in
        fun () -> Machine.charge machine meter 40);
  }
