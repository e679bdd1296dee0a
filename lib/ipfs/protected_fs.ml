open Twine_crypto
open Twine_sgx
module Backing = Twine_sim.Backing

type variant = Stock | Optimized

let node_size = 4096
let iv_len = 12
let tag_len = 16
let magic = "PFS1"
let journal_magic = "PFSJ"
let tombstone = "DEAD"

(* Per-node sealing material kept in the encrypted header. [present] is
   the in-memory view (mutated as writes land); [c_present] is whether
   the node exists under the last *committed* header — the pre-image
   journal only needs to preserve nodes the committed state can see. *)
type entry = {
  mutable iv : string;
  mutable tag : string;
  mutable present : bool;
  mutable c_present : bool;
}

type node = { plaintext : Bytes.t; mutable dirty : bool; slot : int }

type t = {
  enclave : Enclave.t;
  backing : Backing.t;
  variant : variant;
  cache_nodes : int;
  mutable hits : int;
  mutable misses : int;
  cache_hit : Twine_obs.Obs.counter;
  cache_miss : Twine_obs.Obs.counter;
  crypto_bytes : Twine_obs.Obs.counter;
  crypto : Twine_obs.Ledger.account;
  io : Twine_obs.Ledger.account;
  journal : Twine_obs.Ledger.account;
  recovery : Twine_obs.Ledger.account;
}

(* The node cipher of one file, chosen from the file system's variant. *)
type node_cipher =
  | Node_gcm of Gcm.key  (* stock *)
  | Node_ccm of Aes.key  (* optimised *)

type file = {
  fs : t;
  path : string;
  cipher : node_cipher;
  header_key : Gcm.key;
  mutable size : int;
  mutable pos : int;
  mutable entries : entry array;
  cache : node Twine_sim.Lru.t;
  cache_base : int;  (* enclave address of the node cache region *)
  mutable gen : int;  (* committed header generation (0 = none yet) *)
  mutable live_slot : int;  (* slot holding generation [gen]; -1 = none *)
  mutable jrnl_started : bool;  (* journal header written this txn *)
  mutable jrnl_count : int;
  journaled : (int, unit) Hashtbl.t;  (* node idx -> pre-image saved *)
  mutable closed : bool;
}

exception Integrity_violation of string

let create enclave backing ?(variant = Stock) ?(cache_nodes = 48) () =
  if cache_nodes < 1 then invalid_arg "Protected_fs.create: cache_nodes < 1";
  let m = Enclave.machine enclave in
  let count = Twine_obs.Obs.counter m.Machine.obs
  and account = Twine_obs.Ledger.account m.Machine.ledger in
  { enclave; backing; variant; cache_nodes; hits = 0; misses = 0;
    cache_hit = count "ipfs.cache.hit"; cache_miss = count "ipfs.cache.miss";
    crypto_bytes = count "ipfs.crypto.bytes"; crypto = account "ipfs.crypto";
    io = account "ipfs.io"; journal = account "ipfs.journal";
    recovery = account "ipfs.recovery" }

let variant t = t.variant
let enclave t = t.enclave

(* Two header slots: a commit writes the inactive slot, so a torn header
   write leaves the previous generation intact (old-or-new). *)
let meta_path path = path ^ ".pfsmeta"
let meta2_path path = path ^ ".pfsmeta2"
let slot_path path slot = if slot = 0 then meta_path path else meta2_path path
let journal_path path = path ^ ".pfsjrnl"

let machine t = Enclave.machine t.enclave
let obs t = (machine t).Machine.obs
let traced t = Option.is_some (Twine_obs.Obs.tracer (obs t))

(* Run [f] inside the enclave, entering via an ECALL when the caller is
   still outside (standalone library use). *)
let in_enclave t f =
  if Enclave.inside t.enclave then f () else Enclave.ecall t.enclave (fun _ -> f ())

(* The untrusted store is read and written only through these helpers:
   they are the fault sites ["backing.read"] and ["backing.write"],
   consulting the plan armed on this enclave's machine. An injected
   fault fails the operation, drops it, or tears or corrupts its data. *)
let store_fault t site key =
  let open Twine_sim in
  match Machine.fault (machine t) site with
  | Some Fault.Fail -> raise (Fault.Transient (site ^ " " ^ key))
  | Some Fault.Crash -> raise (Fault.Crashed (site ^ " " ^ key))
  | a -> a

let store_read t key ~pos ~len =
  let data = Backing.read t.backing key ~pos ~len in
  match store_fault t "backing.read" key with
  | Some Twine_sim.Fault.Drop -> ""
  | Some a -> Twine_sim.Fault.mutilate a data
  | None -> data

let store_write t key ~pos data =
  match store_fault t "backing.write" key with
  | Some Twine_sim.Fault.Drop -> ()
  | Some a -> Backing.write t.backing key ~pos (Twine_sim.Fault.mutilate a data)
  | None -> Backing.write t.backing key ~pos data

let charge_untrusted_io t acct n =
  let m = machine t in
  Machine.charge m acct
    (m.costs.untrusted_io_base_ns + Costs.bytes_ns m.costs.untrusted_io_ns_per_byte n)

let charge_crypto t n =
  let m = machine t in
  Twine_obs.Obs.add t.crypto_bytes n;
  if traced t then
    Twine_obs.Obs.emit m.Machine.obs ~cat:"ipfs" ~args:[ ("bytes", n) ] "ipfs.crypto";
  Machine.charge m t.crypto (Costs.bytes_ns m.costs.aes_ns_per_byte n)

let node_aad idx = "node:" ^ string_of_int idx

(* --- Header (de)serialisation --- *)

let put_u32 b v =
  for i = 0 to 3 do Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff)) done

let put_u64 b v =
  for i = 0 to 7 do Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff)) done

let get_u32 s off =
  let v = ref 0 in
  for i = 3 downto 0 do v := (!v lsl 8) lor Char.code s.[off + i] done;
  !v

let get_u64 s off =
  let v = ref 0 in
  for i = 7 downto 0 do v := (!v lsl 8) lor Char.code s.[off + i] done;
  !v

(* Header plaintext: [gen u64][size u64][count u32][entries...] — the
   generation is under the header's authentication tag, so an attacker
   cannot graft one generation's entry table onto another's. *)
let serialize_header ~gen ~size entries =
  let b = Buffer.create (20 + (Array.length entries * (iv_len + tag_len + 1))) in
  put_u64 b gen;
  put_u64 b size;
  put_u32 b (Array.length entries);
  Array.iter
    (fun e ->
      Buffer.add_char b (if e.present then '\001' else '\000');
      Buffer.add_string b (if e.present then e.iv else String.make iv_len '\000');
      Buffer.add_string b (if e.present then e.tag else String.make tag_len '\000'))
    entries;
  Buffer.contents b

let deserialize_header s =
  if String.length s < 20 then raise (Integrity_violation "header too short");
  let gen = get_u64 s 0 in
  let size = get_u64 s 8 in
  let count = get_u32 s 16 in
  let stride = 1 + iv_len + tag_len in
  if String.length s < 20 + (count * stride) then
    raise (Integrity_violation "header truncated");
  let entries =
    Array.init count (fun i ->
        let off = 20 + (i * stride) in
        let present = s.[off] = '\001' in
        {
          present;
          c_present = present;
          iv = String.sub s (off + 1) iv_len;
          tag = String.sub s (off + 1 + iv_len) tag_len;
        })
  in
  (gen, size, entries)

(* --- Node encryption --- *)

let encrypt_node file idx plaintext =
  let iv = Enclave.random file.fs.enclave iv_len in
  let aad = node_aad idx in
  let ct, tag =
    match file.cipher with
    | Node_gcm k -> Gcm.encrypt k ~iv ~aad plaintext
    | Node_ccm k -> Ccm.encrypt k ~nonce:iv ~aad plaintext
  in
  (iv, ct, tag)

let decrypt_node file idx ~iv ~tag ciphertext =
  let aad = node_aad idx in
  let res =
    match file.cipher with
    | Node_gcm k -> Gcm.decrypt k ~iv ~aad ~tag ciphertext
    | Node_ccm k -> Ccm.decrypt k ~nonce:iv ~aad ~tag ciphertext
  in
  match res with
  | Some pt -> pt
  | None ->
      raise (Integrity_violation (Printf.sprintf "%s: node %d" file.path idx))

(* --- Entries growth --- *)

let ensure_entry file idx =
  let n = Array.length file.entries in
  if idx >= n then begin
    let grown =
      Array.init (max (idx + 1) (max 4 (2 * n))) (fun i ->
          if i < n then file.entries.(i)
          else { iv = ""; tag = ""; present = false; c_present = false })
    in
    file.entries <- grown
  end;
  file.entries.(idx)

(* --- Node pre-image journal ---

   In-place node writes are what make a torn commit unrecoverable: once
   node k holds new ciphertext, the old header's (iv, tag) for k no
   longer authenticates. Before the first overwrite of a committed node
   in a commit interval, its on-disk ciphertext is appended to a journal
   keyed by the committed generation; recovery at open rolls the
   pre-images back iff the journal generation matches the live header
   (i.e. the crash happened before the next header landed). The journal
   shuffles ciphertext between untrusted files, so it costs OCALL + I/O
   but no enclave copies or crypto. *)

let jrnl_stride = 4 + 1 + node_size

let journal_begin file =
  if not file.jrnl_started then begin
    let fs = file.fs in
    let jp = journal_path file.path in
    let b = Buffer.create 16 in
    Buffer.add_string b journal_magic;
    put_u64 b file.gen;
    put_u32 b 0;
    let hdr = Buffer.contents b in
    Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
        charge_untrusted_io fs fs.journal
          (String.length hdr);
        store_write fs jp ~pos:0 hdr);
    file.jrnl_started <- true;
    file.jrnl_count <- 0
  end

let journal_node file idx =
  if
    idx < Array.length file.entries
    && file.entries.(idx).c_present
    && not (Hashtbl.mem file.journaled idx)
  then begin
    journal_begin file;
    let fs = file.fs in
    let jp = journal_path file.path in
    let entry_pos = 16 + (file.jrnl_count * jrnl_stride) in
    Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
        (* ciphertext-to-ciphertext, entirely in untrusted memory *)
        charge_untrusted_io fs fs.journal
          (2 * node_size) ;
        let old_ct =
          store_read fs file.path ~pos:(idx * node_size) ~len:node_size
        in
        let old_ct =
          if String.length old_ct >= node_size then String.sub old_ct 0 node_size
          else old_ct ^ String.make (node_size - String.length old_ct) '\000'
        in
        let b = Buffer.create jrnl_stride in
        put_u32 b idx;
        Buffer.add_char b '\001';
        Buffer.add_string b old_ct;
        store_write fs jp ~pos:entry_pos (Buffer.contents b);
        (* entry durable first, then the count that makes it visible *)
        let c = Buffer.create 4 in
        put_u32 c (file.jrnl_count + 1);
        store_write fs jp ~pos:12 (Buffer.contents c));
    file.jrnl_count <- file.jrnl_count + 1;
    Hashtbl.replace file.journaled idx ()
  end

let journal_end file =
  if file.jrnl_started then begin
    let fs = file.fs in
    Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
        charge_untrusted_io fs fs.journal 16;
        ignore (Backing.delete fs.backing (journal_path file.path)));
    file.jrnl_started <- false;
    file.jrnl_count <- 0
  end;
  Hashtbl.reset file.journaled

(* --- Cache management with cost accounting --- *)

let slot_addr file slot = file.cache_base + (slot * 2 * node_size)

let write_back file idx (node : node) =
  let fs = file.fs in
  journal_node file idx;
  let pt = Bytes.to_string node.plaintext in
  charge_crypto fs node_size;
  let iv, ct, tag = encrypt_node file idx pt in
  let e = ensure_entry file idx in
  e.iv <- iv;
  e.tag <- tag;
  e.present <- true;
  Enclave.copy_out fs.enclave node_size;
  Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
      charge_untrusted_io fs fs.io node_size;
      store_write fs file.path ~pos:(idx * node_size) ct);
  node.dirty <- false

let evict file (idx, node) =
  if node.dirty then write_back file idx node;
  (* Stock IPFS clears the plaintext buffer of dropped nodes. *)
  if file.fs.variant = Stock then
    Enclave.memset file.fs.enclave node_size

(* Load node [idx] into the cache, returning it. *)
let load_node file idx =
  let fs = file.fs in
  match Twine_sim.Lru.find file.cache idx with
  | node ->
      fs.hits <- fs.hits + 1;
      Twine_obs.Obs.inc fs.cache_hit;
      if traced fs then
        Twine_obs.Obs.emit (obs fs) ~cat:"ipfs" ~args:[ ("node", idx) ] "ipfs.cache.hit";
      Enclave.touch fs.enclave ~addr:(slot_addr file node.slot) ~len:node_size;
      node
  | exception Not_found ->
      fs.misses <- fs.misses + 1;
      Twine_obs.Obs.inc fs.cache_miss;
      if traced fs then
        Twine_obs.Obs.emit (obs fs) ~cat:"ipfs" ~args:[ ("node", idx) ] "ipfs.cache.miss";
      let slot = idx mod fs.cache_nodes in
      (* Stock IPFS zeroes the whole node structure (two 4 KiB buffers
         plus metadata) before filling it (§V-F). *)
      if fs.variant = Stock then
        Enclave.memset fs.enclave ((2 * node_size) + 64);
      let e = if idx < Array.length file.entries then file.entries.(idx) else
          { iv = ""; tag = ""; present = false; c_present = false } in
      let plaintext =
        if e.present then begin
          let ct =
            Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
                charge_untrusted_io fs fs.io node_size;
                store_read fs file.path ~pos:(idx * node_size) ~len:node_size)
          in
          if String.length ct <> node_size then
            raise (Integrity_violation (Printf.sprintf "%s: node %d missing" file.path idx));
          (* Stock: the edge routine copies the ciphertext into enclave
             memory before GCM decryption; optimised CCM decrypts straight
             from the untrusted buffer. *)
          if fs.variant = Stock then
            Enclave.copy_in fs.enclave node_size;
          charge_crypto fs node_size;
          Bytes.of_string (decrypt_node file idx ~iv:e.iv ~tag:e.tag ct)
        end
        else Bytes.make node_size '\000'
      in
      let node = { plaintext; dirty = false; slot } in
      Enclave.touch fs.enclave ~addr:(slot_addr file slot) ~len:node_size;
      (match Twine_sim.Lru.put file.cache idx node with
      | Some evicted -> evict file evicted
      | None -> ());
      node

(* --- Header I/O --- *)

(* Commit point: serialize under the new generation and write the slot
   NOT holding the live header. A torn write damages only the inactive
   slot; the moment the blob is complete, the new generation wins slot
   selection at open. *)
let write_header file =
  let fs = file.fs in
  let gen = file.gen + 1 in
  let pt = serialize_header ~gen ~size:file.size file.entries in
  charge_crypto fs (String.length pt);
  let iv = Enclave.random fs.enclave iv_len in
  let ct, tag = Gcm.encrypt file.header_key ~iv ~aad:"header" pt in
  let b = Buffer.create (String.length ct + 40) in
  Buffer.add_string b magic;
  Buffer.add_string b iv;
  put_u32 b (String.length ct);
  Buffer.add_string b ct;
  Buffer.add_string b tag;
  let blob = Buffer.contents b in
  let target = if file.live_slot = 0 then 1 else 0 in
  Enclave.copy_out fs.enclave (String.length blob);
  Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
      charge_untrusted_io fs fs.io (String.length blob);
      store_write fs (slot_path file.path target) ~pos:0 blob);
  file.gen <- gen;
  file.live_slot <- target;
  (* the journal belonged to the previous generation; retire it and
     refresh the committed-present view *)
  journal_end file;
  Array.iter (fun e -> e.c_present <- e.present) file.entries

(* One slot's state at open: a blob that parses and authenticates, an
   explicit deletion tombstone, damage (torn write or tampering), or
   nothing at all. *)
type slot_state =
  | Slot_valid of int * int * entry array  (* gen, size, entries *)
  | Slot_dead
  | Slot_invalid
  | Slot_absent

let read_slot fs ~path ~slot ~header_key =
  let sp = slot_path path slot in
  match Backing.size fs.backing sp with
  | None -> Slot_absent
  | Some n -> (
      let blob =
        Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
            charge_untrusted_io fs fs.io n;
            store_read fs sp ~pos:0 ~len:n)
      in
      if String.length blob >= 4 && String.sub blob 0 4 = tombstone then Slot_dead
      else if String.length blob < 36 || String.sub blob 0 4 <> magic then
        Slot_invalid
      else begin
        let iv = String.sub blob 4 iv_len in
        let ct_len = get_u32 blob (4 + iv_len) in
        if String.length blob < 4 + iv_len + 4 + ct_len + tag_len then Slot_invalid
        else begin
          let ct = String.sub blob (4 + iv_len + 4) ct_len in
          let tag = String.sub blob (4 + iv_len + 4 + ct_len) tag_len in
          Enclave.copy_in fs.enclave (String.length blob);
          charge_crypto fs ct_len;
          match Gcm.decrypt header_key ~iv ~aad:"header" ~tag ct with
          | Some pt ->
              let gen, size, entries = deserialize_header pt in
              Slot_valid (gen, size, entries)
          | None -> Slot_invalid
        end
      end)

(* The journal's generation, when a structurally sound journal exists. *)
let read_journal_gen fs ~path =
  let jp = journal_path path in
  match Backing.size fs.backing jp with
  | None -> None
  | Some n when n < 16 -> None
  | Some _ ->
      let hdr =
        Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
            charge_untrusted_io fs fs.recovery 16;
            store_read fs jp ~pos:0 ~len:16)
      in
      if String.length hdr = 16 && String.sub hdr 0 4 = journal_magic then
        Some (get_u64 hdr 4)
      else None

(* Roll committed-generation pre-images back over the data file. The
   count field is only advanced after its entry is complete, so every
   entry below it replays whole; replaying twice is replaying once. *)
let rollback_journal fs ~path =
  let jp = journal_path path in
  let hdr =
    Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
        charge_untrusted_io fs fs.recovery 16;
        store_read fs jp ~pos:0 ~len:16)
  in
  let count = get_u32 hdr 12 in
  for k = 0 to count - 1 do
    Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
        charge_untrusted_io fs fs.recovery
          (2 * node_size);
        let entry =
          store_read fs jp ~pos:(16 + (k * jrnl_stride)) ~len:jrnl_stride
        in
        if String.length entry = jrnl_stride && entry.[4] = '\001' then begin
          let idx = get_u32 entry 0 in
          store_write fs path ~pos:(idx * node_size)
            (String.sub entry 5 node_size)
        end)
  done

let delete_journal fs ~path =
  Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
      charge_untrusted_io fs fs.recovery 16;
      ignore (Backing.delete fs.backing (journal_path path)))

(* Crash recovery at open: pick the newest authenticated header slot,
   roll the pre-image journal back when it belongs to that generation
   (the crash hit before the next header landed), and distinguish a
   torn commit (forgiven: a journal proves a commit was in flight) from
   tampering (both slots damaged with no journal: Integrity_violation).

   Returns [None] when the file does not exist — including the window
   where a crash interrupted its very first commit or its deletion. *)
let read_header fs ~path ~header_key =
  let s0 = read_slot fs ~path ~slot:0 ~header_key in
  let s1 = read_slot fs ~path ~slot:1 ~header_key in
  let jgen = read_journal_gen fs ~path in
  let dead = s0 = Slot_dead || s1 = Slot_dead in
  if dead then begin
    (* deletion in flight: finish it *)
    Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
        charge_untrusted_io fs fs.recovery 16;
        ignore (Backing.delete fs.backing (meta_path path));
        ignore (Backing.delete fs.backing (meta2_path path));
        ignore (Backing.delete fs.backing (journal_path path)));
    None
  end
  else begin
    let best =
      match (s0, s1) with
      | Slot_valid (g0, sz0, e0), Slot_valid (g1, _, _) when g0 >= g1 ->
          Some (g0, sz0, e0)
      | _, Slot_valid (g1, sz1, e1) -> Some (g1, sz1, e1)
      | Slot_valid (g0, sz0, e0), _ -> Some (g0, sz0, e0)
      | _ -> None
    in
    match best with
    | Some (gen, size, entries) ->
        (match jgen with
        | Some jg when jg = gen ->
            (* crash after some in-place node writes, before the next
               header: restore the generation's pre-images *)
            rollback_journal fs ~path;
            delete_journal fs ~path
        | Some _ -> delete_journal fs ~path  (* committed; journal is stale *)
        | None -> ());
        let live_slot =
          match (s0, s1) with
          | Slot_valid (g0, _, _), _ when g0 = gen -> 0
          | _ -> 1
        in
        Some (gen, size, entries, live_slot)
    | None ->
        if s0 = Slot_absent && s1 = Slot_absent then begin
          (match jgen with Some _ -> delete_journal fs ~path | None -> ());
          None
        end
        else if jgen = Some 0 then begin
          (* torn very first commit: the file never existed durably *)
          Enclave.ocall fs.enclave ~name:"ipfs.ocall" (fun () ->
              charge_untrusted_io fs fs.recovery 16;
              ignore (Backing.delete fs.backing (meta_path path));
              ignore (Backing.delete fs.backing (meta2_path path));
              ignore (Backing.delete fs.backing (journal_path path)));
          None
        end
        else
          (* a damaged slot with no evidence of an in-flight commit *)
          raise (Integrity_violation (path ^ ": header authentication failed"))
  end

(* --- Public API --- *)

let derive_keys fs ?key ~path () =
  let master =
    match key with
    | Some k ->
        if String.length k <> 16 then invalid_arg "Protected_fs: key must be 16 bytes";
        k
    | None ->
        (* Automatic key: derived from the enclave sealing identity and the
           path, hence unrecoverable on another CPU or enclave (§IV-E). *)
        Hmac.derive ~key:(Seal.key fs.enclave ~label:"pfs" ())
          ~info:("pfs-file:" ^ path) ~length:16
  in
  let header_raw = Hmac.derive ~key:master ~info:"pfs-header" ~length:16 in
  let cipher =
    match fs.variant with
    | Stock -> Node_gcm (Gcm.of_raw master)
    | Optimized -> Node_ccm (Aes.expand master)
  in
  (cipher, Gcm.of_raw header_raw)

(* Tombstone both slots, then remove everything. The tombstones make a
   half-finished deletion unambiguous at open: without them, removing
   one slot would resurrect the other's older generation, whose nodes
   may already be overwritten. *)
let delete_keys fs path =
  let existed =
    Backing.exists fs.backing (meta_path path)
    || Backing.exists fs.backing (meta2_path path)
    || Backing.exists fs.backing path
  in
  List.iter
    (fun sp ->
      if Backing.exists fs.backing sp then store_write fs sp ~pos:0 tombstone)
    [ meta_path path; meta2_path path ];
  ignore (Backing.delete fs.backing path);
  ignore (Backing.delete fs.backing (meta_path path));
  ignore (Backing.delete fs.backing (meta2_path path));
  ignore (Backing.delete fs.backing (journal_path path));
  existed

let open_file t ?key ~mode path =
  in_enclave t (fun () ->
      let cipher, header_key = derive_keys t ?key ~path () in
      (* Read (and recover) the header before touching any state on [t]
         or the enclave: a failed open leaves both exactly as they were. *)
      let header =
        match mode with
        | `Trunc ->
            ignore (delete_keys t path);
            None
        | `Rdonly | `Rdwr -> (
            match read_header t ~path ~header_key with
            | Some h -> Some h
            | None ->
                if mode = `Rdonly then
                  raise (Sys_error (path ^ ": no such protected file"))
                else None)
      in
      let size, entries, gen, live_slot =
        match header with
        | Some (gen, size, entries, live_slot) -> (size, entries, gen, live_slot)
        | None -> (0, [||], 0, -1)
      in
      {
        fs = t;
        path;
        cipher;
        header_key;
        size;
        pos = 0;
        entries;
        cache = Twine_sim.Lru.create ~capacity:t.cache_nodes ();
        cache_base = Enclave.alloc t.enclave (t.cache_nodes * 2 * node_size);
        gen;
        live_slot;
        jrnl_started = false;
        jrnl_count = 0;
        journaled = Hashtbl.create 8;
        closed = false;
      })

let check_open file = if file.closed then invalid_arg "Protected_fs: file is closed"

let read file buf ~off ~len =
  check_open file;
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Protected_fs.read";
  in_enclave file.fs (fun () ->
      let remaining = min len (file.size - file.pos) in
      if remaining <= 0 then 0
      else begin
        let copied = ref 0 in
        while !copied < remaining do
          let pos = file.pos + !copied in
          let idx = pos / node_size and in_node = pos mod node_size in
          let chunk = min (node_size - in_node) (remaining - !copied) in
          let node = load_node file idx in
          Bytes.blit node.plaintext in_node buf (off + !copied) chunk;
          copied := !copied + chunk
        done;
        file.pos <- file.pos + remaining;
        remaining
      end)

let write file data =
  check_open file;
  in_enclave file.fs (fun () ->
      let len = String.length data in
      let written = ref 0 in
      while !written < len do
        let pos = file.pos + !written in
        let idx = pos / node_size and in_node = pos mod node_size in
        let chunk = min (node_size - in_node) (len - !written) in
        let node = load_node file idx in
        Bytes.blit_string data !written node.plaintext in_node chunk;
        node.dirty <- true;
        ignore (ensure_entry file idx);
        written := !written + chunk
      done;
      file.pos <- file.pos + len;
      if file.pos > file.size then file.size <- file.pos;
      len)

let seek file ~offset ~whence =
  check_open file;
  let target =
    match whence with
    | `Set -> offset
    | `Cur -> file.pos + offset
    | `End -> file.size + offset
  in
  if target < 0 then Error "negative offset"
  else if target > file.size then Error "beyond end of file"
  else begin
    file.pos <- target;
    Ok target
  end

let tell file = file.pos
let file_size file = file.size

(* [seek] stops at EOF (§IV-E); callers that need a position past it
   extend the file with zeros first. *)
let pad_to file target =
  let size = file_size file in
  if target > size then begin
    ignore (seek file ~offset:0 ~whence:`End);
    ignore (write file (String.make (target - size) '\000'))
  end

let flush file =
  check_open file;
  in_enclave file.fs (fun () ->
      (* the journal header precedes any commit work, so a crash during
         even the very first commit is recognisable as such at open *)
      journal_begin file;
      List.iter
        (fun (idx, node) -> if node.dirty then write_back file idx node)
        (Twine_sim.Lru.to_list file.cache);
      write_header file)

let close file =
  if not file.closed then begin
    flush file;
    in_enclave file.fs (fun () ->
        List.iter (fun entry -> evict file entry) (Twine_sim.Lru.to_list file.cache);
        Twine_sim.Lru.clear file.cache);
    file.closed <- true
  end

let delete t path = delete_keys t path

let exists t path =
  let alive sp =
    match Backing.size t.backing sp with
    | None -> false
    | Some n ->
        n < 4 || store_read t sp ~pos:0 ~len:4 <> tombstone
  in
  alive (meta_path path) || alive (meta2_path path)

let cache_stats t = (t.hits, t.misses)
