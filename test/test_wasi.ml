(* WASI preview1 tests: wire-level behaviour of the host functions
   (pointers into guest memory, errno codes), the capability sandbox, and
   an end-to-end WASI command. *)

open Twine_wasm
open Twine_wasm.Values
open Twine_wasi

let mem_module = Wat.parse {|(module (memory (export "memory") 2))|}

(* Create a ctx bound to a fresh memory; returns (ctx, memory, call)
   where [call name args] invokes the named WASI function. *)
let setup ?args ?env ?preopens ?providers () =
  let ctx = Api.create ?args ?env ?preopens ?providers () in
  let inst = Interp.instantiate ~imports:(Api.imports ctx) mem_module in
  Api.bind_memory ctx inst;
  let fns = Api.functions ctx in
  let call name vargs =
    match List.assoc_opt name fns with
    | Some f -> (
        match Interp.call_func f vargs with
        | [ I32 e ] -> Int32.to_int e
        | [] -> 0
        | _ -> Alcotest.fail "unexpected results")
    | None -> Alcotest.fail ("no such wasi function " ^ name)
  in
  (ctx, Api.memory ctx, call)

let i v = I32 (Int32.of_int v)
let l v = I64 (Int64.of_int v)

let check_errno = Alcotest.(check int)

(* Helper: write an iovec array at [iovs] pointing at (buf,len) pairs. *)
let put_iovs m iovs pairs =
  List.iteri
    (fun k (buf, len) ->
      Memory.store32 m (iovs + (8 * k)) (Int32.of_int buf);
      Memory.store32 m (iovs + (8 * k) + 4) (Int32.of_int len))
    pairs

let test_surface_complete () =
  let ctx, _, _ = setup () in
  (* the paper counts 45 functions in the WASI interface (§III-B) *)
  Alcotest.(check int) "45 functions" 45 (Api.function_count ctx)

let test_args () =
  let _, m, call = setup ~args:[ "prog"; "--fast"; "x" ] () in
  check_errno "sizes" 0 (call "args_sizes_get" [ i 100; i 104 ]);
  Alcotest.(check int32) "argc" 3l (Memory.load32 m 100);
  Alcotest.(check int32) "buf size" 14l (Memory.load32 m 104);
  check_errno "get" 0 (call "args_get" [ i 200; i 300 ]);
  Alcotest.(check string) "argv[0]" "prog" (Memory.load_cstring m (Int32.to_int (Memory.load32 m 200)));
  Alcotest.(check string) "argv[1]" "--fast" (Memory.load_cstring m (Int32.to_int (Memory.load32 m 204)));
  Alcotest.(check string) "argv[2]" "x" (Memory.load_cstring m (Int32.to_int (Memory.load32 m 208)))

let test_environ () =
  let _, m, call = setup ~env:[ ("HOME", "/"); ("MODE", "sgx") ] () in
  check_errno "sizes" 0 (call "environ_sizes_get" [ i 100; i 104 ]);
  Alcotest.(check int32) "count" 2l (Memory.load32 m 100);
  check_errno "get" 0 (call "environ_get" [ i 200; i 300 ]);
  Alcotest.(check string) "first" "HOME=/" (Memory.load_cstring m (Int32.to_int (Memory.load32 m 200)))

let test_clock_monotonic_guard () =
  (* a clock that goes backwards must be clamped by the provider *)
  let seq = ref [ 100L; 50L; 120L ] in
  let backwards () =
    match !seq with
    | [] -> 130L
    | x :: rest ->
        seq := rest;
        x
  in
  let last = ref 0L in
  let guarded () =
    let now = backwards () in
    if Int64.compare now !last > 0 then last := now;
    !last
  in
  let providers = { (Api.default_providers ()) with clock_monotonic = guarded } in
  let _, m, call = setup ~providers () in
  let read_time () =
    check_errno "time" 0 (call "clock_time_get" [ i 1; l 0; i 64 ]);
    Memory.load64 m 64
  in
  let t1 = read_time () in
  let t2 = read_time () in
  let t3 = read_time () in
  Alcotest.(check bool) "never decreases" true
    (Int64.compare t2 t1 >= 0 && Int64.compare t3 t2 >= 0)

let test_clock_bad_id () =
  let _, _, call = setup () in
  check_errno "bad clock" Errno.einval (call "clock_time_get" [ i 9; l 0; i 64 ])

let test_random_get () =
  let providers =
    { (Api.default_providers ()) with random = (fun n -> String.init n (fun k -> Char.chr (k land 0xff))) }
  in
  let _, m, call = setup ~providers () in
  check_errno "random" 0 (call "random_get" [ i 500; i 8 ]);
  Alcotest.(check string) "bytes written" "\x00\x01\x02\x03\x04\x05\x06\x07"
    (Memory.load_bytes m 500 8)

let test_default_providers_per_context () =
  (* each context owns its default random stream: a second context
     starts from the same point instead of continuing the first's *)
  let draw () =
    let _, m, call = setup () in
    check_errno "random" 0 (call "random_get" [ i 500; i 16 ]);
    Memory.load_bytes m 500 16
  in
  let first = draw () in
  Alcotest.(check string) "same stream in a fresh context" first (draw ())

let test_fd_write_stdout () =
  let out = Buffer.create 16 in
  let providers = { (Api.default_providers ()) with stdout = Buffer.add_string out } in
  let _, m, call = setup ~providers () in
  Memory.store_bytes m 1000 "hello ";
  Memory.store_bytes m 1010 "world";
  put_iovs m 64 [ (1000, 6); (1010, 5) ];
  check_errno "write" 0 (call "fd_write" [ i 1; i 64; i 2; i 80 ]);
  Alcotest.(check int32) "nwritten" 11l (Memory.load32 m 80);
  Alcotest.(check string) "sink" "hello world" (Buffer.contents out)

let test_fd_badf () =
  let _, _, call = setup () in
  check_errno "write badf" Errno.ebadf (call "fd_write" [ i 77; i 64; i 0; i 80 ]);
  check_errno "close badf" Errno.ebadf (call "fd_close" [ i 77 ]);
  check_errno "seek badf" Errno.ebadf (call "fd_seek" [ i 77; l 0; i 0; i 80 ])

(* Open a file in the first preopen; returns the new fd. *)
let open_file m call ?(oflags = 1 (* CREAT *)) ?(rights = -1) name =
  Memory.store_bytes m 2000 name;
  let rights64 = if rights = -1 then I64 0x1fffffffL else l rights in
  let e =
    call "path_open"
      [ i 3; i 0; i 2000; i (String.length name); i oflags; rights64; I64 0L; i 0; i 2100 ]
  in
  check_errno ("open " ^ name) 0 e;
  Int32.to_int (Memory.load32 m 2100)

let test_file_roundtrip () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  let fd = open_file m call "data.txt" in
  Alcotest.(check bool) "fd >= 4" true (fd >= 4);
  Memory.store_bytes m 1000 "persistent content";
  put_iovs m 64 [ (1000, 18) ];
  check_errno "write" 0 (call "fd_write" [ i fd; i 64; i 1; i 80 ]);
  Alcotest.(check int32) "wrote all" 18l (Memory.load32 m 80);
  (* rewind and read back *)
  check_errno "seek" 0 (call "fd_seek" [ i fd; l 0; i 0; i 88 ]);
  put_iovs m 64 [ (3000, 100) ];
  check_errno "read" 0 (call "fd_read" [ i fd; i 64; i 1; i 80 ]);
  Alcotest.(check int32) "nread" 18l (Memory.load32 m 80);
  Alcotest.(check string) "content" "persistent content" (Memory.load_bytes m 3000 18);
  check_errno "close" 0 (call "fd_close" [ i fd ]);
  check_errno "double close" Errno.ebadf (call "fd_close" [ i fd ])

let test_vectored_read () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  let fd = open_file m call "v.txt" in
  Memory.store_bytes m 1000 "abcdefgh";
  put_iovs m 64 [ (1000, 8) ];
  check_errno "write" 0 (call "fd_write" [ i fd; i 64; i 1; i 80 ]);
  check_errno "seek" 0 (call "fd_seek" [ i fd; l 0; i 0; i 88 ]);
  (* read into two separate buffers *)
  put_iovs m 64 [ (3000, 3); (3100, 5) ];
  check_errno "read" 0 (call "fd_read" [ i fd; i 64; i 2; i 80 ]);
  Alcotest.(check int32) "total" 8l (Memory.load32 m 80);
  Alcotest.(check string) "first iov" "abc" (Memory.load_bytes m 3000 3);
  Alcotest.(check string) "second iov" "defgh" (Memory.load_bytes m 3100 5)

let test_pread_pwrite () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  let fd = open_file m call "p.txt" in
  Memory.store_bytes m 1000 "0123456789";
  put_iovs m 64 [ (1000, 10) ];
  check_errno "write" 0 (call "fd_write" [ i fd; i 64; i 1; i 80 ]);
  (* pwrite at 4 must not move the cursor *)
  Memory.store_bytes m 1100 "XY";
  put_iovs m 64 [ (1100, 2) ];
  check_errno "pwrite" 0 (call "fd_pwrite" [ i fd; i 64; i 1; l 4; i 80 ]);
  check_errno "tell" 0 (call "fd_tell" [ i fd; i 88 ]);
  Alcotest.(check int) "cursor unchanged" 10 (Int64.to_int (Memory.load64 m 88));
  put_iovs m 64 [ (3000, 4) ];
  check_errno "pread" 0 (call "fd_pread" [ i fd; i 64; i 1; l 3; i 80 ]);
  Alcotest.(check string) "pread window" "3XY6" (Memory.load_bytes m 3000 4)

let test_filestat_and_set_size () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  let fd = open_file m call "s.bin" in
  Memory.store_bytes m 1000 "123456";
  put_iovs m 64 [ (1000, 6) ];
  check_errno "write" 0 (call "fd_write" [ i fd; i 64; i 1; i 80 ]);
  check_errno "filestat" 0 (call "fd_filestat_get" [ i fd; i 400 ]);
  Alcotest.(check int) "size" 6 (Int64.to_int (Memory.load64 m 432));
  Alcotest.(check int32) "filetype regular" 4l (Memory.load8_u m 416);
  check_errno "truncate" 0 (call "fd_filestat_set_size" [ i fd; l 3 ]);
  check_errno "filestat2" 0 (call "fd_filestat_get" [ i fd; i 400 ]);
  Alcotest.(check int) "shrunk" 3 (Int64.to_int (Memory.load64 m 432));
  (* path_filestat_get through the directory *)
  Memory.store_bytes m 2000 "s.bin";
  check_errno "path stat" 0 (call "path_filestat_get" [ i 3; i 0; i 2000; i 5; i 400 ]);
  Alcotest.(check int) "path size" 3 (Int64.to_int (Memory.load64 m 432))

let test_prestat () =
  let preopens = [ ("/data", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  check_errno "prestat" 0 (call "fd_prestat_get" [ i 3; i 100 ]);
  Alcotest.(check int32) "tag dir" 0l (Memory.load8_u m 100);
  Alcotest.(check int32) "name len" 5l (Memory.load32 m 104);
  check_errno "dir name" 0 (call "fd_prestat_dir_name" [ i 3; i 200; i 5 ]);
  Alcotest.(check string) "name" "/data" (Memory.load_bytes m 200 5);
  check_errno "too small" Errno.erange (call "fd_prestat_dir_name" [ i 3; i 200; i 2 ]);
  check_errno "not a preopen" Errno.ebadf (call "fd_prestat_get" [ i 1; i 100 ])

let test_sandbox_escape_rejected () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  let try_open name =
    Memory.store_bytes m 2000 name;
    call "path_open"
      [ i 3; i 0; i 2000; i (String.length name); i 1; I64 0x1fffffffL; I64 0L; i 0; i 2100 ]
  in
  check_errno "dotdot escape" Errno.enotcapable (try_open "../etc/passwd");
  check_errno "absolute" Errno.enotcapable (try_open "/etc/passwd");
  check_errno "sneaky traversal" Errno.enotcapable (try_open "a/../../b");
  check_errno "inner dotdot ok" 0 (try_open "a/../b")

let test_rights_enforced () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  (* open with read-only rights (bit 1) *)
  let fd = open_file m call ~rights:2 "ro.txt" in
  put_iovs m 64 [ (1000, 4) ];
  check_errno "write denied" Errno.enotcapable (call "fd_write" [ i fd; i 64; i 1; i 80 ]);
  check_errno "read allowed" 0 (call "fd_read" [ i fd; i 64; i 1; i 80 ]);
  (* rights can only shrink *)
  check_errno "grow rights denied" Errno.enotcapable
    (call "fd_fdstat_set_rights" [ i fd; I64 0xffL; I64 0L ]);
  check_errno "shrink ok" 0 (call "fd_fdstat_set_rights" [ i fd; I64 2L; I64 0L ])

let test_unlink_rename () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  let fd = open_file m call "old.txt" in
  check_errno "close" 0 (call "fd_close" [ i fd ]);
  Memory.store_bytes m 2000 "old.txt";
  Memory.store_bytes m 2200 "new.txt";
  check_errno "rename" 0 (call "path_rename" [ i 3; i 2000; i 7; i 3; i 2200; i 7 ]);
  check_errno "stat old gone" Errno.enoent
    (call "path_filestat_get" [ i 3; i 0; i 2000; i 7; i 400 ]);
  check_errno "unlink new" 0 (call "path_unlink_file" [ i 3; i 2200; i 7 ]);
  check_errno "unlink again" Errno.enoent (call "path_unlink_file" [ i 3; i 2200; i 7 ])

let test_directories () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  Memory.store_bytes m 2000 "subdir";
  check_errno "mkdir" 0 (call "path_create_directory" [ i 3; i 2000; i 6 ]);
  check_errno "mkdir again" Errno.eexist (call "path_create_directory" [ i 3; i 2000; i 6 ]);
  let fd = open_file m call "subdir/file.txt" in
  check_errno "close" 0 (call "fd_close" [ i fd ]);
  check_errno "rmdir nonempty" Errno.enotempty
    (call "path_remove_directory" [ i 3; i 2000; i 6 ]);
  Memory.store_bytes m 2100 "subdir/file.txt";
  check_errno "unlink inner" 0 (call "path_unlink_file" [ i 3; i 2100; i 15 ]);
  check_errno "rmdir" 0 (call "path_remove_directory" [ i 3; i 2000; i 6 ])

let test_readdir () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  List.iter
    (fun name ->
      let fd = open_file m call name in
      ignore (call "fd_close" [ i fd ]))
    [ "a.txt"; "b.txt" ];
  check_errno "readdir" 0 (call "fd_readdir" [ i 3; i 4000; i 512; l 0; i 96 ]);
  let used = Int32.to_int (Memory.load32 m 96) in
  Alcotest.(check int) "two entries" (24 + 5 + 24 + 5) used;
  Alcotest.(check string) "first name" "a.txt" (Memory.load_bytes m (4000 + 24) 5)

let test_renumber () =
  let preopens = [ (".", Vfs.memory ()) ] in
  let _, m, call = setup ~preopens () in
  let fd = open_file m call "r.txt" in
  check_errno "renumber" 0 (call "fd_renumber" [ i fd; i 9 ]);
  check_errno "old gone" Errno.ebadf (call "fd_tell" [ i fd; i 88 ]);
  check_errno "new works" 0 (call "fd_tell" [ i 9; i 88 ])

let test_sockets_unsupported () =
  let _, _, call = setup () in
  check_errno "sock_recv" Errno.enotsup (call "sock_recv" [ i 4; i 0; i 0; i 0; i 0; i 0 ]);
  check_errno "sock_send" Errno.enotsup (call "sock_send" [ i 4; i 0; i 0; i 0; i 0 ]);
  check_errno "sock_shutdown" Errno.enotsup (call "sock_shutdown" [ i 4; i 0 ]);
  check_errno "path_link" Errno.enosys
    (call "path_link" [ i 3; i 0; i 0; i 0; i 3; i 0; i 0 ])

let test_on_call_hook () =
  let calls = ref [] in
  let providers =
    { (Api.default_providers ()) with on_call = (fun name () -> calls := name :: !calls) }
  in
  let _, _, call = setup ~providers () in
  ignore (call "sched_yield" []);
  ignore (call "clock_res_get" [ i 1; i 64 ]);
  Alcotest.(check (list string)) "hook saw calls" [ "clock_res_get"; "sched_yield" ] !calls

(* --- end-to-end WASI command --- *)

let hello_wat =
  {|(module
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "proc_exit"
        (func $proc_exit (param i32)))
      (memory (export "memory") 1)
      (data (i32.const 100) "hello from wasi\n")
      (func (export "_start")
        ;; iov at 8: base=100 len=16
        (i32.store (i32.const 8) (i32.const 100))
        (i32.store (i32.const 12) (i32.const 16))
        (drop (call $fd_write (i32.const 1) (i32.const 8) (i32.const 1) (i32.const 20)))
        (call $proc_exit (i32.const 7))))|}

let test_run_command () =
  let out = Buffer.create 16 in
  let providers = { (Api.default_providers ()) with stdout = Buffer.add_string out } in
  let ctx = Api.create ~providers () in
  let code = Api.run_command ctx (Wat.parse hello_wat) in
  Alcotest.(check int) "exit code" 7 code;
  Alcotest.(check string) "stdout" "hello from wasi\n" (Buffer.contents out);
  Alcotest.(check (option int)) "exit recorded" (Some 7) (Api.exit_code ctx)

let suite =
  [ ("surface", [ Alcotest.test_case "45 functions" `Quick test_surface_complete ]);
    ("process", [
      Alcotest.test_case "args" `Quick test_args;
      Alcotest.test_case "environ" `Quick test_environ;
      Alcotest.test_case "monotonic clock guard" `Quick test_clock_monotonic_guard;
      Alcotest.test_case "bad clock id" `Quick test_clock_bad_id;
      Alcotest.test_case "random_get" `Quick test_random_get;
      Alcotest.test_case "default providers are per context" `Quick
        test_default_providers_per_context;
      Alcotest.test_case "on_call hook" `Quick test_on_call_hook;
    ]);
    ("fd", [
      Alcotest.test_case "stdout write" `Quick test_fd_write_stdout;
      Alcotest.test_case "bad fd" `Quick test_fd_badf;
      Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
      Alcotest.test_case "vectored read" `Quick test_vectored_read;
      Alcotest.test_case "pread/pwrite" `Quick test_pread_pwrite;
      Alcotest.test_case "filestat/set_size" `Quick test_filestat_and_set_size;
      Alcotest.test_case "renumber" `Quick test_renumber;
      Alcotest.test_case "readdir" `Quick test_readdir;
    ]);
    ("sandbox", [
      Alcotest.test_case "prestat" `Quick test_prestat;
      Alcotest.test_case "escape rejected" `Quick test_sandbox_escape_rejected;
      Alcotest.test_case "rights enforced" `Quick test_rights_enforced;
    ]);
    ("paths", [
      Alcotest.test_case "unlink/rename" `Quick test_unlink_rename;
      Alcotest.test_case "directories" `Quick test_directories;
      Alcotest.test_case "sockets/links unsupported" `Quick test_sockets_unsupported;
    ]);
    ("command", [ Alcotest.test_case "hello world" `Quick test_run_command ]);
  ]

let () = Alcotest.run "twine_wasi" suite
