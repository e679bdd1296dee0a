(* A trusted key-value store built from the substrate pieces directly:
   sealed storage, protected files and tamper evidence.

     dune exec examples/trusted_kv.exe

   Shows the SGX data-at-rest guarantees the paper relies on: sealing
   policies (MRENCLAVE vs MRSIGNER), tamper detection on protected files,
   and the rollback limitation §IV-D documents. *)

open Twine_sim
open Twine_sgx
open Twine_ipfs

let () =
  let machine = Machine.create ~seed:"kv" () in
  let enclave = Enclave.create machine ~signer:"acme" ~code:"kv-store-v1" () in
  let backing = Backing.memory () in
  let fs = Protected_fs.create enclave backing () in

  (* --- a tiny KV API over one protected file per key --- *)
  let put key value =
    let f = Protected_fs.open_file fs ~mode:`Trunc ("kv/" ^ key) in
    ignore (Protected_fs.write f value);
    Protected_fs.close f
  in
  let get key =
    if not (Protected_fs.exists fs ("kv/" ^ key)) then None
    else begin
      let f = Protected_fs.open_file fs ~mode:`Rdonly ("kv/" ^ key) in
      let buf = Bytes.create (Protected_fs.file_size f) in
      let n = Protected_fs.read f buf ~off:0 ~len:(Bytes.length buf) in
      Protected_fs.close f;
      Some (Bytes.sub_string buf 0 n)
    end
  in

  put "api-token" "sk-live-0123456789";
  put "config" "retries=3;endpoint=internal";
  Printf.printf "get api-token -> %s\n" (Option.value (get "api-token") ~default:"<none>");
  Printf.printf "get missing   -> %s\n" (Option.value (get "missing") ~default:"<none>");

  (* --- sealing: same data, bound to enclave identity --- *)
  let sealed_enclave = Seal.seal enclave "only this exact binary" in
  let sealed_vendor = Seal.seal enclave ~policy:Seal.Mr_signer "any acme enclave" in
  Printf.printf "sealed blob sizes: %d / %d bytes\n" (String.length sealed_enclave)
    (String.length sealed_vendor);

  (* v2 of the same vendor's enclave: MRSIGNER blob opens, MRENCLAVE not *)
  let v2 = Enclave.create machine ~signer:"acme" ~code:"kv-store-v2" () in
  Printf.printf "v2 unseals MRSIGNER blob: %b\n"
    (Seal.unseal v2 sealed_vendor = Some "any acme enclave");
  Printf.printf "v2 unseals MRENCLAVE blob: %b (must be false)\n"
    (Seal.unseal v2 sealed_enclave <> None);

  (* --- tamper detection --- *)
  let target = "kv/api-token" in
  let n = Option.get (Backing.size backing target) in
  let raw = Backing.read backing target ~pos:(n / 2) ~len:1 in
  Backing.write backing target ~pos:(n / 2)
    (String.make 1 (Char.chr (Char.code raw.[0] lxor 0x01)));
  (try
     ignore (get "api-token");
     print_endline "BUG: tampered value was accepted!"
   with Protected_fs.Integrity_violation what ->
     Printf.printf "tamper detected: %s\n" what);

  (* --- the documented rollback limitation (§IV-D) --- *)
  (* snapshot both files of a key, overwrite with a newer value, restore
     the old snapshot: IPFS cannot tell (no freshness protection) *)
  put "balance" "100";
  let snap_data = Backing.read backing "kv/balance" ~pos:0 ~len:1_000_000 in
  let snap_meta = Backing.read backing "kv/balance.pfsmeta" ~pos:0 ~len:1_000_000 in
  put "balance" "0";
  ignore (Backing.delete backing "kv/balance");
  ignore (Backing.delete backing "kv/balance.pfsmeta");
  Backing.write backing "kv/balance" ~pos:0 snap_data;
  Backing.write backing "kv/balance.pfsmeta" ~pos:0 snap_meta;
  Printf.printf "after rollback attack, balance reads: %s (stale accepted — known limitation)\n"
    (Option.value (get "balance") ~default:"<none>")
