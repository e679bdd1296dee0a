(* Intel Protected File System simulation: backing store, protected file
   round-trips, integrity, cost accounting, stock-vs-optimised ablation. *)

open Twine_sim
open Twine_sgx
open Twine_ipfs

let setup ?variant ?cache_nodes ?epc_bytes () =
  let m = Machine.create ?epc_bytes ~seed:"ipfs-test" () in
  let e = Enclave.create m ~code:"ipfs" () in
  let backing = Backing.memory () in
  let fs = Protected_fs.create e backing ?variant ?cache_nodes () in
  (m, e, backing, fs)

(* --- Backing store --- *)

let test_backing_rw () =
  let b = Backing.memory () in
  Backing.write b "f" ~pos:0 "hello";
  Alcotest.(check string) "read back" "hello" (Backing.read b "f" ~pos:0 ~len:5);
  Backing.write b "f" ~pos:3 "LO!";
  Alcotest.(check string) "overwrite" "helLO!" (Backing.read b "f" ~pos:0 ~len:10);
  Backing.write b "f" ~pos:10 "gap";
  Alcotest.(check (option int)) "size with gap" (Some 13) (Backing.size b "f");
  Alcotest.(check string) "gap zero-filled" "\000\000\000\000"
    (Backing.read b "f" ~pos:6 ~len:4);
  Alcotest.(check string) "read past eof" "" (Backing.read b "f" ~pos:100 ~len:4)

let test_backing_delete_truncate () =
  let b = Backing.memory () in
  Backing.write b "x" ~pos:0 "0123456789";
  Backing.truncate b "x" 4;
  Alcotest.(check (option int)) "truncated" (Some 4) (Backing.size b "x");
  Alcotest.(check bool) "delete" true (Backing.delete b "x");
  Alcotest.(check bool) "gone" false (Backing.exists b "x");
  Alcotest.(check bool) "double delete" false (Backing.delete b "x")

let test_backing_directory () =
  let dir = Filename.temp_file "twine" "" in
  Sys.remove dir;
  let b = Backing.directory dir in
  Backing.write b "a/b" ~pos:0 "data";
  Alcotest.(check string) "dir read" "data" (Backing.read b "a/b" ~pos:0 ~len:4);
  Alcotest.(check bool) "key encoded, no subdir" true
    (Sys.file_exists (Filename.concat dir "a%2fb"));
  Alcotest.(check (list string)) "list" [ "a%2fb" ] (Backing.list b);
  ignore (Backing.delete b "a/b");
  Unix.rmdir dir

let test_backing_key_escapes () =
  (* hostile keys must stay inside the root as ordinary flat files *)
  let dir = Filename.temp_file "twine" "" in
  Sys.remove dir;
  let b = Backing.directory dir in
  let keys = [ ".."; "."; ""; "%2f"; "a/../b"; ".hidden" ] in
  List.iteri (fun i k -> Backing.write b k ~pos:0 (string_of_int i)) keys;
  List.iteri
    (fun i k ->
      Alcotest.(check string)
        (Printf.sprintf "key %S kept distinct" k)
        (string_of_int i)
        (Backing.read b k ~pos:0 ~len:8))
    keys;
  Alcotest.(check int) "one flat file per key" (List.length keys)
    (List.length (Backing.list b));
  let parent = Filename.dirname dir in
  Alcotest.(check bool) "\"..\" did not write outside the root" false
    (Sys.file_exists (Filename.concat parent "0"));
  List.iter (fun k -> ignore (Backing.delete b k)) keys;
  Unix.rmdir dir

let test_backing_short_read_zero_extend () =
  (* the directory backend must match the in-memory reference semantics:
     short read at EOF, zero-fill for gaps left by sparse writes *)
  let dir = Filename.temp_file "twine" "" in
  Sys.remove dir;
  let mem = Backing.memory () in
  let on_disk = Backing.directory dir in
  List.iter
    (fun b ->
      Backing.write b "f" ~pos:0 "head";
      Backing.write b "f" ~pos:10 "tail")
    [ mem; on_disk ];
  List.iter
    (fun (what, b) ->
      Alcotest.(check string) (what ^ ": gap reads as zeros")
        "head\000\000\000\000\000\000tail"
        (Backing.read b "f" ~pos:0 ~len:14);
      Alcotest.(check string) (what ^ ": short read at eof") "ail"
        (Backing.read b "f" ~pos:11 ~len:64);
      Alcotest.(check string) (what ^ ": read past eof") ""
        (Backing.read b "f" ~pos:100 ~len:8);
      Alcotest.(check (option int)) (what ^ ": size") (Some 14)
        (Backing.size b "f"))
    [ ("memory", mem); ("directory", on_disk) ];
  ignore (Backing.delete on_disk "f");
  Unix.rmdir dir

let test_backing_logged_records_mutations_only () =
  let log = Twine_sim.Crashpoint.create () in
  let b = Backing.logged log (Backing.memory ()) in
  Backing.write b "f" ~pos:0 "data";
  ignore (Backing.read b "f" ~pos:0 ~len:4);
  Backing.truncate b "f" 2;
  ignore (Backing.delete b "f");
  Alcotest.(check int) "write/truncate/delete logged, read not" 3
    (Twine_sim.Crashpoint.length log);
  Alcotest.(check (list string)) "op order"
    [ "write f @0 (4 bytes)"; "truncate f -> 2"; "delete f" ]
    (List.map Twine_sim.Crashpoint.describe (Twine_sim.Crashpoint.ops log))

(* Random store workloads over keys that must stay flat and distinct. *)
let store_keys = [| "a"; "b"; "a/b"; "."; ".."; "" |]

type store_op = W of string * int * string | T of string * int | D of string | S of string

let store_ops =
  let open QCheck.Gen in
  let key = map (Array.get store_keys) (int_bound (Array.length store_keys - 1)) in
  let op =
    frequency
      [ (5, map3 (fun k pos d -> W (k, pos, d)) key (int_bound 64)
              (string_size ~gen:printable (int_bound 40)));
        (2, map2 (fun k n -> T (k, n)) key (int_bound 80));
        (1, map (fun k -> D k) key);
        (2, map (fun k -> S k) key) ]
  in
  let print = function
    | W (k, pos, d) -> Printf.sprintf "write %S @%d %S" k pos d
    | T (k, n) -> Printf.sprintf "truncate %S %d" k n
    | D k -> Printf.sprintf "delete %S" k
    | S k -> Printf.sprintf "sync %S" k
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_range 1 40) op)

let apply_store_op b = function
  | W (k, pos, d) -> Backing.write b k ~pos d
  | T (k, n) -> Backing.truncate b k n
  | D k -> ignore (Backing.delete b k)
  | S k -> Backing.sync b k

(* What a store holds: its file count, and per key existence, size and bytes. *)
let contents b =
  ( List.length (Backing.list b),
    Array.map
      (fun k -> (Backing.exists b k, Backing.size b k, Backing.read b k ~pos:0 ~len:max_int))
      store_keys )

let prop_stores_agree =
  QCheck.Test.make ~name:"memory and directory stores agree" ~count:60 store_ops (fun ops ->
      let dir = Filename.temp_file "twine" "" in
      Sys.remove dir;
      let mem = Backing.memory () and disk = Backing.directory dir in
      let agree =
        List.for_all
          (fun op ->
            apply_store_op mem op;
            apply_store_op disk op;
            contents mem = contents disk)
          ops
      in
      Array.iter (fun k -> ignore (Backing.delete disk k)) store_keys;
      Unix.rmdir dir;
      agree)

(* Every mutation and sync is logged; replaying the whole log rebuilds
   the live store, and a torn replay adds exactly the first half of the
   write in flight, if it carries data, to the clean replay. *)
let prop_replay =
  QCheck.Test.make ~name:"replay rebuilds the store, torn changes only a write" ~count:100
    store_ops (fun ops ->
      let log = Crashpoint.create () in
      let live = Backing.logged log (Backing.memory ()) in
      List.iter (apply_store_op live) ops;
      let n = Crashpoint.length log in
      let torn_ok at op =
        let clean = Backing.replay log ~at in
        (match op with
        | Crashpoint.Write { file; pos; data } when data <> "" ->
            Backing.write clean file ~pos (String.sub data 0 (String.length data / 2))
        | _ -> ());
        contents (Backing.replay ~torn:true log ~at) = contents clean
      in
      n = List.length ops
      && contents (Backing.replay log ~at:n) = contents live
      && List.for_all Fun.id (List.mapi torn_ok (Crashpoint.ops log)))

(* --- Protected files: functional behaviour --- *)

let test_pfs_write_read_roundtrip () =
  let _, _, _, fs = setup () in
  let f = Protected_fs.open_file fs ~mode:`Trunc "db" in
  let n = Protected_fs.write f "hello protected world" in
  Alcotest.(check int) "write length" 21 n;
  Alcotest.(check int) "size" 21 (Protected_fs.file_size f);
  Alcotest.(check bool) "seek home" true (Protected_fs.seek f ~offset:0 ~whence:`Set = Ok 0);
  let buf = Bytes.create 64 in
  let r = Protected_fs.read f buf ~off:0 ~len:64 in
  Alcotest.(check int) "read length" 21 r;
  Alcotest.(check string) "content" "hello protected world" (Bytes.sub_string buf 0 r);
  Protected_fs.close f

let test_pfs_persist_reopen () =
  let _, _, _, fs = setup () in
  let f = Protected_fs.open_file fs ~mode:`Trunc "db" in
  ignore (Protected_fs.write f "persisted across open/close");
  Protected_fs.close f;
  let f2 = Protected_fs.open_file fs ~mode:`Rdonly "db" in
  let buf = Bytes.create 128 in
  let r = Protected_fs.read f2 buf ~off:0 ~len:128 in
  Alcotest.(check string) "reopen reads back" "persisted across open/close"
    (Bytes.sub_string buf 0 r);
  Protected_fs.close f2

let test_pfs_multi_node_file () =
  (* spans several 4 KiB nodes with a partial tail *)
  let _, _, _, fs = setup ~cache_nodes:4 () in
  let payload =
    String.init 20_000 (fun i -> Char.chr ((i * 7 / 13) land 0xff))
  in
  let f = Protected_fs.open_file fs ~mode:`Trunc "big" in
  ignore (Protected_fs.write f payload);
  Protected_fs.close f;
  let f2 = Protected_fs.open_file fs ~mode:`Rdonly "big" in
  let buf = Bytes.create 20_000 in
  let rec drain off =
    if off < 20_000 then begin
      let r = Protected_fs.read f2 buf ~off ~len:(min 3000 (20_000 - off)) in
      if r > 0 then drain (off + r)
    end
  in
  drain 0;
  Alcotest.(check bool) "20k roundtrip" true (Bytes.to_string buf = payload);
  Protected_fs.close f2

let test_pfs_random_access_overwrite () =
  let _, _, _, fs = setup () in
  let f = Protected_fs.open_file fs ~mode:`Trunc "r" in
  ignore (Protected_fs.write f (String.make 10_000 'a'));
  Alcotest.(check bool) "seek mid" true (Protected_fs.seek f ~offset:5_000 ~whence:`Set = Ok 5_000);
  ignore (Protected_fs.write f "XYZ");
  Protected_fs.close f;
  let f2 = Protected_fs.open_file fs ~mode:`Rdonly "r" in
  ignore (Protected_fs.seek f2 ~offset:4_999 ~whence:`Set);
  let buf = Bytes.create 5 in
  ignore (Protected_fs.read f2 buf ~off:0 ~len:5);
  Alcotest.(check string) "overwrite visible" "aXYZa" (Bytes.to_string buf);
  Protected_fs.close f2

let test_pfs_seek_semantics () =
  let _, _, _, fs = setup () in
  let f = Protected_fs.open_file fs ~mode:`Trunc "s" in
  ignore (Protected_fs.write f "0123456789");
  Alcotest.(check bool) "seek end" true (Protected_fs.seek f ~offset:0 ~whence:`End = Ok 10);
  Alcotest.(check bool) "seek cur back" true
    (Protected_fs.seek f ~offset:(-4) ~whence:`Cur = Ok 6);
  Alcotest.(check int) "tell" 6 (Protected_fs.tell f);
  (* sgx_fseek refuses to go beyond EOF (paper §IV-E) *)
  Alcotest.(check bool) "beyond eof refused" true
    (Result.is_error (Protected_fs.seek f ~offset:100 ~whence:`Set));
  Alcotest.(check bool) "negative refused" true
    (Result.is_error (Protected_fs.seek f ~offset:(-1) ~whence:`Set));
  Protected_fs.close f

let test_pfs_ciphertext_only_on_disk () =
  let _, _, backing, fs = setup () in
  let secret = "TOP-SECRET-PATTERN-1234567890" in
  let f = Protected_fs.open_file fs ~mode:`Trunc "leak" in
  ignore (Protected_fs.write f secret);
  Protected_fs.close f;
  let contains_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key ->
      match Backing.size backing key with
      | None -> ()
      | Some n ->
          let raw = Backing.read backing key ~pos:0 ~len:n in
          Alcotest.(check bool) (key ^ " has no plaintext") false
            (contains_sub raw secret))
    (Backing.list backing)

let test_pfs_tamper_detection () =
  let _, _, backing, fs = setup () in
  let f = Protected_fs.open_file fs ~mode:`Trunc "t" in
  ignore (Protected_fs.write f (String.make 5000 'q'));
  Protected_fs.close f;
  (* flip one ciphertext byte in the second node *)
  let raw = Backing.read backing "t" ~pos:4100 ~len:1 in
  Backing.write backing "t" ~pos:4100
    (String.make 1 (Char.chr (Char.code raw.[0] lxor 0x40)));
  let f2 = Protected_fs.open_file fs ~mode:`Rdonly "t" in
  let buf = Bytes.create 5000 in
  Alcotest.(check bool) "tampered node detected" true
    (try
       ignore (Protected_fs.read f2 buf ~off:0 ~len:5000);
       false
     with Protected_fs.Integrity_violation _ -> true)

let test_pfs_node_swap_detection () =
  (* swapping two ciphertext nodes within the file must fail: node index is
     authenticated data *)
  let _, _, backing, fs = setup () in
  let f = Protected_fs.open_file fs ~mode:`Trunc "swap" in
  ignore (Protected_fs.write f (String.make 4096 'A'));
  ignore (Protected_fs.write f (String.make 4096 'B'));
  Protected_fs.close f;
  let n0 = Backing.read backing "swap" ~pos:0 ~len:4096 in
  let n1 = Backing.read backing "swap" ~pos:4096 ~len:4096 in
  Backing.write backing "swap" ~pos:0 n1;
  Backing.write backing "swap" ~pos:4096 n0;
  let f2 = Protected_fs.open_file fs ~mode:`Rdonly "swap" in
  let buf = Bytes.create 8192 in
  Alcotest.(check bool) "swapped nodes detected" true
    (try
       ignore (Protected_fs.read f2 buf ~off:0 ~len:8192);
       false
     with Protected_fs.Integrity_violation _ -> true)

let test_pfs_header_tamper () =
  let _, _, backing, fs = setup () in
  let f = Protected_fs.open_file fs ~mode:`Trunc "h" in
  ignore (Protected_fs.write f "data");
  Protected_fs.close f;
  let meta = "h.pfsmeta" in
  let n = Option.get (Backing.size backing meta) in
  let raw = Backing.read backing meta ~pos:(n - 1) ~len:1 in
  Backing.write backing meta ~pos:(n - 1)
    (String.make 1 (Char.chr (Char.code raw.[0] lxor 1)));
  Alcotest.(check bool) "header tamper detected" true
    (try
       ignore (Protected_fs.open_file fs ~mode:`Rdonly "h");
       false
     with Protected_fs.Integrity_violation _ -> true)

let test_pfs_explicit_key () =
  let _, _, backing, fs = setup () in
  let key = String.make 16 'K' in
  let f = Protected_fs.open_file fs ~key ~mode:`Trunc "shared" in
  ignore (Protected_fs.write f "cross-enclave data");
  Protected_fs.close f;
  (* A different enclave (even a different machine) with the key can read. *)
  let m2 = Machine.create ~seed:"other-cpu" () in
  let e2 = Enclave.create m2 ~code:"other" () in
  let fs2 = Protected_fs.create e2 backing () in
  let f2 = Protected_fs.open_file fs2 ~key ~mode:`Rdonly "shared" in
  let buf = Bytes.create 64 in
  let r = Protected_fs.read f2 buf ~off:0 ~len:64 in
  Alcotest.(check string) "explicit key crosses machines" "cross-enclave data"
    (Bytes.sub_string buf 0 r);
  (* Without the key (auto derivation) the header must not authenticate. *)
  Alcotest.(check bool) "auto key fails" true
    (try
       ignore (Protected_fs.open_file fs2 ~mode:`Rdonly "shared");
       false
     with Protected_fs.Integrity_violation _ -> true)

let test_pfs_auto_key_is_machine_bound () =
  let backing = Backing.memory () in
  let m1 = Machine.create ~seed:"cpu-one" () in
  let e1 = Enclave.create m1 ~code:"same-code" () in
  let fs1 = Protected_fs.create e1 backing () in
  let f = Protected_fs.open_file fs1 ~mode:`Trunc "bound" in
  ignore (Protected_fs.write f "sealed to cpu-one");
  Protected_fs.close f;
  let m2 = Machine.create ~seed:"cpu-two" () in
  let e2 = Enclave.create m2 ~code:"same-code" () in
  let fs2 = Protected_fs.create e2 backing () in
  Alcotest.(check bool) "other cpu cannot open" true
    (try
       ignore (Protected_fs.open_file fs2 ~mode:`Rdonly "bound");
       false
     with Protected_fs.Integrity_violation _ -> true)

let test_pfs_delete_exists () =
  let _, _, _, fs = setup () in
  let f = Protected_fs.open_file fs ~mode:`Trunc "d" in
  ignore (Protected_fs.write f "x");
  Protected_fs.close f;
  Alcotest.(check bool) "exists" true (Protected_fs.exists fs "d");
  Alcotest.(check bool) "delete" true (Protected_fs.delete fs "d");
  Alcotest.(check bool) "gone" false (Protected_fs.exists fs "d");
  Alcotest.(check bool) "rdonly on missing raises" true
    (try
       ignore (Protected_fs.open_file fs ~mode:`Rdonly "d");
       false
     with Sys_error _ -> true)

let test_pfs_optimized_variant_roundtrip () =
  let _, _, _, fs = setup ~variant:Protected_fs.Optimized () in
  let payload = String.init 9000 (fun i -> Char.chr (i land 0xff)) in
  let f = Protected_fs.open_file fs ~mode:`Trunc "opt" in
  ignore (Protected_fs.write f payload);
  Protected_fs.close f;
  let f2 = Protected_fs.open_file fs ~mode:`Rdonly "opt" in
  let buf = Bytes.create 9000 in
  let rec drain off =
    if off < 9000 then
      let r = Protected_fs.read f2 buf ~off ~len:(9000 - off) in
      if r > 0 then drain (off + r)
  in
  drain 0;
  Alcotest.(check bool) "ccm variant roundtrip" true (Bytes.to_string buf = payload)

(* --- Cost-model behaviour (the §V-F effect) --- *)

let random_read_cost variant =
  let m, _, _, fs =
    let m = Machine.create ~seed:"cost" () in
    let e = Enclave.create m ~code:"ipfs" () in
    let fs = Protected_fs.create e (Backing.memory ()) ~variant ~cache_nodes:8 () in
    (m, e, (), fs)
  in
  let f = Protected_fs.open_file fs ~mode:`Trunc "c" in
  ignore (Protected_fs.write f (String.make (256 * 4096) 'z'));
  Protected_fs.flush f;
  let t0 = Machine.now_ns m in
  let drbg = Twine_crypto.Drbg.create ~seed:"reads" () in
  let buf = Bytes.create 64 in
  for _ = 1 to 300 do
    let pos = Twine_crypto.Drbg.int_below drbg (255 * 4096) in
    ignore (Protected_fs.seek f ~offset:pos ~whence:`Set);
    ignore (Protected_fs.read f buf ~off:0 ~len:64)
  done;
  let cost = Machine.now_ns m - t0 in
  Protected_fs.close f;
  (cost, m)

let test_optimized_is_faster () =
  let stock_cost, stock_m = random_read_cost Protected_fs.Stock in
  let opt_cost, opt_m = random_read_cost Protected_fs.Optimized in
  Alcotest.(check bool)
    (Printf.sprintf "optimised (%d ns) beats stock (%d ns)" opt_cost stock_cost)
    true (opt_cost < stock_cost);
  (* the stock variant spends time in memset; the optimised variant none *)
  let memset_ns m = Twine_obs.Ledger.ns (Machine.ledger m) "mee.memset" in
  Alcotest.(check bool) "stock memsets" true (memset_ns stock_m > 0);
  Alcotest.(check int) "optimised never memsets" 0 (memset_ns opt_m)

let test_cache_hit_avoids_ocall () =
  let m, _, _, fs =
    let m = Machine.create ~seed:"hits" () in
    let e = Enclave.create m ~code:"ipfs" () in
    (m, e, (), Protected_fs.create e (Backing.memory ()) ~cache_nodes:8 ())
  in
  let f = Protected_fs.open_file fs ~mode:`Trunc "x" in
  ignore (Protected_fs.write f (String.make 4096 'p'));
  let ocall_charges () =
    Twine_obs.Ledger.events (Machine.ledger m) "sgx.transition.ocall"
  in
  let ocalls_before = ocall_charges () in
  let buf = Bytes.create 16 in
  for _ = 1 to 50 do
    ignore (Protected_fs.seek f ~offset:0 ~whence:`Set);
    ignore (Protected_fs.read f buf ~off:0 ~len:16)
  done;
  Alcotest.(check int) "cached reads do not leave the enclave" ocalls_before
    (ocall_charges ());
  let hits, _ = Protected_fs.cache_stats fs in
  Alcotest.(check bool) "hits recorded" true (hits >= 50)

let prop_pfs_roundtrip =
  QCheck.Test.make ~name:"protected file write/read roundtrip" ~count:30
    QCheck.(pair (string_of_size QCheck.Gen.(int_range 0 12_000)) (int_range 1 6))
    (fun (payload, cache_nodes) ->
      let _, _, _, fs = setup ~cache_nodes () in
      let f = Protected_fs.open_file fs ~mode:`Trunc "prop" in
      ignore (Protected_fs.write f payload);
      Protected_fs.close f;
      let f2 = Protected_fs.open_file fs ~mode:`Rdonly "prop" in
      let buf = Bytes.create (String.length payload) in
      let rec drain off =
        if off < String.length payload then begin
          let r = Protected_fs.read f2 buf ~off ~len:(String.length payload - off) in
          if r > 0 then drain (off + r)
        end
      in
      drain 0;
      Protected_fs.close f2;
      Bytes.to_string buf = payload)

let qc = QCheck_alcotest.to_alcotest

let suite =
  [ ("backing", [
      Alcotest.test_case "read/write/gap" `Quick test_backing_rw;
      Alcotest.test_case "delete/truncate" `Quick test_backing_delete_truncate;
      Alcotest.test_case "directory backend" `Quick test_backing_directory;
      Alcotest.test_case "hostile key escapes" `Quick test_backing_key_escapes;
      Alcotest.test_case "short read / zero extend" `Quick
        test_backing_short_read_zero_extend;
      Alcotest.test_case "logged backend records mutations" `Quick
        test_backing_logged_records_mutations_only;
      qc prop_stores_agree;
      qc prop_replay;
    ]);
    ("protected_fs", [
      Alcotest.test_case "roundtrip" `Quick test_pfs_write_read_roundtrip;
      Alcotest.test_case "persist/reopen" `Quick test_pfs_persist_reopen;
      Alcotest.test_case "multi-node" `Quick test_pfs_multi_node_file;
      Alcotest.test_case "random overwrite" `Quick test_pfs_random_access_overwrite;
      Alcotest.test_case "seek semantics" `Quick test_pfs_seek_semantics;
      Alcotest.test_case "ciphertext only on disk" `Quick test_pfs_ciphertext_only_on_disk;
      Alcotest.test_case "node tamper" `Quick test_pfs_tamper_detection;
      Alcotest.test_case "node swap" `Quick test_pfs_node_swap_detection;
      Alcotest.test_case "header tamper" `Quick test_pfs_header_tamper;
      Alcotest.test_case "explicit key" `Quick test_pfs_explicit_key;
      Alcotest.test_case "auto key machine-bound" `Quick test_pfs_auto_key_is_machine_bound;
      Alcotest.test_case "delete/exists" `Quick test_pfs_delete_exists;
      Alcotest.test_case "optimised variant roundtrip" `Quick test_pfs_optimized_variant_roundtrip;
      qc prop_pfs_roundtrip;
    ]);
    ("costs", [
      Alcotest.test_case "optimised beats stock" `Quick test_optimized_is_faster;
      Alcotest.test_case "cache hits avoid ocalls" `Quick test_cache_hit_avoids_ocall;
    ]);
  ]

let () = Alcotest.run "twine_ipfs" suite
