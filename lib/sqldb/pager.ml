(* Pager: fixed-size pages over a Svfs file, with an LRU page cache and a
   delete-mode rollback journal (the SQLite default the paper benchmarks
   with). All B-tree structures live on pages dispensed here.

   Page 0 is the database header. A transaction journals the pre-image of
   every page before its first modification; commit writes dirty pages,
   syncs, and deletes the journal; rollback (or crash recovery at open)
   copies the pre-images back. *)

let page_size = 4096
let magic = "TWDB0001"
let journal_magic = "TWJR0001"

(* Journal entry: [page u32][pre-image page_size][cksum u32]. The
   checksum lets recovery reject entries that were never made durable: a
   power loss can drop an un-synced entry write while keeping the count
   update, leaving a hole that reads back as zeros (or, torn, as a
   prefix). Replaying such a hole would write garbage over live pages. *)
let entry_size = 4 + page_size + 4

(* FNV-1a over the page number and payload. A zeroed hole stores
   checksum 0 but hashes to a non-zero value, so it never validates. *)
let fnv_mix h byte = (h lxor byte) * 0x01000193 land 0xffffffff

let entry_cksum page_no payload =
  let h = ref 0x811c9dc5 in
  for i = 0 to 3 do
    h := fnv_mix !h ((page_no lsr (8 * i)) land 0xff)
  done;
  for i = 0 to String.length payload - 1 do
    h := fnv_mix !h (Char.code payload.[i])
  done;
  !h

exception Corrupt of string

(* A pager event: its counter, resolved when the pager opens, and the
   name of the timeline instant it emits when a recorder is attached. *)
type event = { name : string; count : Twine_obs.Obs.counter }

let event obs name = { name; count = Twine_obs.Obs.counter obs name }

type hooks = {
  mutable on_read : int -> unit;  (* page number fetched from storage *)
  mutable on_write : int -> unit;  (* page number written to storage *)
  mutable on_access : int -> unit;  (* page buffer touched in memory *)
  mutable on_work : int -> unit;  (* abstract CPU work units *)
}

type t = {
  vfs : Svfs.t;
  path : string;
  file : Svfs.file;
  mutable cache_pages : int;
  cache : Bytes.t Twine_sim.Lru.t;
  dirty : (int, unit) Hashtbl.t;
  mutable n_pages : int;
  mutable freelist : int;
  mutable in_txn : bool;
  mutable journal : Svfs.file option;
  journaled : (int, unit) Hashtbl.t;
  mutable journal_count : int;
  mutable txn_orig_pages : int;
  hooks : hooks;
  obs : Twine_obs.Obs.t;
  hit : event;
  miss : event;
  page_read : event;
  page_write : event;
  journal_write : event;
  mutable stats_reads : int;
  mutable stats_writes : int;
  mutable stats_hits : int;
}

let journal_path path = path ^ "-journal"

let default_hooks () =
  { on_read = (fun _ -> ()); on_write = (fun _ -> ()); on_access = (fun _ -> ());
    on_work = (fun _ -> ()) }

let record t ev ~page =
  Twine_obs.Obs.inc ev.count;
  if Option.is_some (Twine_obs.Obs.tracer t.obs) then
    Twine_obs.Obs.emit t.obs ~cat:"sqldb" ~args:[ ("page", page) ] ev.name

let write_header t =
  let b = Bytes.make page_size '\000' in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int32_le b 8 (Int32.of_int t.n_pages);
  Bytes.set_int32_le b 12 (Int32.of_int t.freelist);
  t.file.Svfs.v_write ~pos:0 (Bytes.to_string b);
  t.stats_writes <- t.stats_writes + 1;
  record t t.page_write ~page:0;
  t.hooks.on_write 0

let read_header t =
  let raw = t.file.Svfs.v_read ~pos:0 ~len:page_size in
  if String.length raw < 16 || String.sub raw 0 8 <> magic then
    raise (Corrupt (t.path ^ ": bad database header"));
  t.n_pages <- Int32.to_int (String.get_int32_le raw 8);
  t.freelist <- Int32.to_int (String.get_int32_le raw 12)

(* --- journal-based crash recovery --- *)

let recover vfs path =
  let jp = journal_path path in
  if vfs.Svfs.v_exists jp then begin
    let j = vfs.Svfs.v_open jp in
    let hdr = j.Svfs.v_read ~pos:0 ~len:16 in
    if String.length hdr >= 16 && String.sub hdr 0 8 = journal_magic then begin
      let count = Int32.to_int (String.get_int32_le hdr 8) in
      let orig_pages = Int32.to_int (String.get_int32_le hdr 12) in
      let db = vfs.Svfs.v_open path in
      for k = 0 to count - 1 do
        let pos = 16 + (k * entry_size) in
        let entry = j.Svfs.v_read ~pos ~len:entry_size in
        if String.length entry = entry_size then begin
          let page_no = Int32.to_int (String.get_int32_le entry 0) in
          let payload = String.sub entry 4 page_size in
          let cksum =
            Int32.to_int (String.get_int32_le entry (4 + page_size))
            land 0xffffffff
          in
          if
            page_no >= 0 && page_no < orig_pages
            && cksum = entry_cksum page_no payload
          then db.Svfs.v_write ~pos:(page_no * page_size) payload
        end
      done;
      db.Svfs.v_truncate (orig_pages * page_size);
      db.Svfs.v_sync ();
      db.Svfs.v_close ()
    end;
    j.Svfs.v_close ();
    vfs.Svfs.v_delete jp
  end

let create_or_open vfs ?(cache_pages = 2048) ?(hooks = default_hooks ()) ?obs path =
  recover vfs path;
  let existed = vfs.Svfs.v_exists path in
  let file = vfs.Svfs.v_open path in
  (* without a registry, the counters land in a private one *)
  let obs = match obs with Some o -> o | None -> Twine_obs.Obs.create () in
  let t =
    {
      vfs;
      path;
      file;
      cache_pages = max 8 cache_pages;
      cache = Twine_sim.Lru.create ~capacity:max_int ();
      dirty = Hashtbl.create 64;
      n_pages = 1;
      freelist = 0;
      in_txn = false;
      journal = None;
      journaled = Hashtbl.create 64;
      journal_count = 0;
      txn_orig_pages = 1;
      hooks;
      obs;
      hit = event obs "sqldb.cache.hit";
      miss = event obs "sqldb.cache.miss";
      page_read = event obs "sqldb.page_read";
      page_write = event obs "sqldb.page_write";
      journal_write = event obs "sqldb.journal_write";
      stats_reads = 0;
      stats_writes = 0;
      stats_hits = 0;
    }
  in
  if existed && file.Svfs.v_size () >= 16 then read_header t else write_header t;
  t

let n_pages t = t.n_pages

let write_page_out t i (b : Bytes.t) =
  t.file.Svfs.v_write ~pos:(i * page_size) (Bytes.to_string b);
  t.stats_writes <- t.stats_writes + 1;
  record t t.page_write ~page:i;
  t.hooks.on_write i

(* Evict clean pages not [pinned] (LRU first) until within capacity. *)
let trim t ~pinned =
  let excess = Twine_sim.Lru.length t.cache - t.cache_pages in
  if excess > 0 then Twine_sim.Lru.trim t.cache excess ~pinned

(* Dirty pages are pinned: they spill to storage only at commit, so a
   buffer handed to the B-tree for modification is never replaced
   underneath it. *)
let evict_if_needed t = trim t ~pinned:(Hashtbl.mem t.dirty)

(* Fetch a page buffer (shared mutable bytes). Callers must not mutate
   without going through [modify]. *)
let read_page t i =
  if i < 0 || i >= t.n_pages then
    raise (Corrupt (Printf.sprintf "%s: page %d out of range (%d)" t.path i t.n_pages));
  t.hooks.on_access i;
  match Twine_sim.Lru.find t.cache i with
  | b ->
      t.stats_hits <- t.stats_hits + 1;
      record t t.hit ~page:i;
      b
  | exception Not_found ->
      let raw = t.file.Svfs.v_read ~pos:(i * page_size) ~len:page_size in
      let b = Bytes.make page_size '\000' in
      Bytes.blit_string raw 0 b 0 (String.length raw);
      ignore (Twine_sim.Lru.put t.cache i b);
      t.stats_reads <- t.stats_reads + 1;
      record t t.miss ~page:i;
      record t t.page_read ~page:i;
      t.hooks.on_read i;
      (* the page just loaded is pinned as well: when every other page is
         dirty, evicting it would hand out a buffer the cache no longer
         holds, and a modification made through it would never be written *)
      trim t ~pinned:(fun k -> k = i || Hashtbl.mem t.dirty k);
      b

(* --- transactions --- *)

let begin_txn t =
  if t.in_txn then invalid_arg "Pager.begin_txn: already in a transaction";
  t.in_txn <- true;
  t.txn_orig_pages <- t.n_pages;
  Hashtbl.reset t.journaled;
  t.journal_count <- 0;
  t.journal <- None

let append_entry t j page_no payload =
  let entry = Bytes.create entry_size in
  Bytes.set_int32_le entry 0 (Int32.of_int page_no);
  Bytes.blit_string payload 0 entry 4 page_size;
  Bytes.set_int32_le entry (4 + page_size)
    (Int32.of_int (entry_cksum page_no payload));
  j.Svfs.v_write ~pos:(16 + (t.journal_count * entry_size)) (Bytes.to_string entry);
  record t t.journal_write ~page:page_no;
  t.journal_count <- t.journal_count + 1;
  let cnt = Bytes.create 4 in
  Bytes.set_int32_le cnt 0 (Int32.of_int t.journal_count);
  j.Svfs.v_write ~pos:8 (Bytes.to_string cnt);
  Hashtbl.replace t.journaled page_no ()

let ensure_journal t =
  match t.journal with
  | Some j -> j
  | None ->
      let j = t.vfs.Svfs.v_open (journal_path t.path) in
      let hdr = Bytes.make 16 '\000' in
      Bytes.blit_string journal_magic 0 hdr 0 8;
      Bytes.set_int32_le hdr 8 0l;
      Bytes.set_int32_le hdr 12 (Int32.of_int t.txn_orig_pages);
      j.Svfs.v_write ~pos:0 (Bytes.to_string hdr);
      t.journal <- Some j;
      (* entry 0: pre-image of the header page, so rollback restores
         n_pages and the freelist head along with the data pages *)
      let raw = t.file.Svfs.v_read ~pos:0 ~len:page_size in
      append_entry t j 0 (raw ^ String.make (page_size - String.length raw) '\000');
      j

let journal_page t i =
  if not (Hashtbl.mem t.journaled i) && i < t.txn_orig_pages then begin
    let j = ensure_journal t in
    let current =
      match Twine_sim.Lru.peek t.cache i with
      | Some b -> Bytes.to_string b
      | None ->
          let raw = t.file.Svfs.v_read ~pos:(i * page_size) ~len:page_size in
          raw ^ String.make (page_size - String.length raw) '\000'
    in
    append_entry t j i current
  end

(* Get a page for modification: journals the pre-image and marks dirty. *)
let modify t i =
  if not t.in_txn then invalid_arg "Pager.modify: not in a transaction";
  let b = read_page t i in
  journal_page t i;
  Hashtbl.replace t.dirty i ();
  b

let alloc t =
  if not t.in_txn then invalid_arg "Pager.alloc: not in a transaction";
  if t.freelist <> 0 then begin
    let i = t.freelist in
    let b = read_page t i in
    journal_page t i;
    t.freelist <- Int32.to_int (Bytes.get_int32_le b 1);
    Bytes.fill b 0 page_size '\000';
    Hashtbl.replace t.dirty i ();
    i
  end
  else begin
    let i = t.n_pages in
    t.n_pages <- t.n_pages + 1;
    let b = Bytes.make page_size '\000' in
    ignore (Twine_sim.Lru.put t.cache i b);
    Hashtbl.replace t.dirty i ();
    evict_if_needed t;
    i
  end

let free t i =
  let b = modify t i in
  Bytes.fill b 0 page_size '\000';
  Bytes.set b 0 '\000';
  Bytes.set_int32_le b 1 (Int32.of_int t.freelist);
  t.freelist <- i

let commit t =
  if not t.in_txn then invalid_arg "Pager.commit: not in a transaction";
  (* Any transaction that touches storage gets a journal — even one that
     only appended fresh pages (no pre-images to take) needs the header
     pre-image, or a crash mid-commit could leave a header referencing
     pages whose writes never became durable. *)
  if Hashtbl.length t.dirty > 0 then ignore (ensure_journal t);
  (* The journal must be durable before any dirty page lands on the
     database: under power loss, un-synced writes may vanish, and an
     incomplete journal next to a half-updated database is
     unrecoverable. SQLite syncs the journal at the same point. *)
  (match t.journal with Some j -> j.Svfs.v_sync () | None -> ());
  (* write all dirty pages, then header, sync, then drop the journal *)
  let dirty_pages =
    Hashtbl.fold (fun i () acc -> i :: acc) t.dirty [] |> List.sort compare
  in
  List.iter
    (fun i ->
      match Twine_sim.Lru.peek t.cache i with
      | Some b -> write_page_out t i b
      | None -> ())
    dirty_pages;
  Hashtbl.reset t.dirty;
  (* dirty pages were pinned during the transaction; shrink back *)
  evict_if_needed t;
  write_header t;
  t.file.Svfs.v_sync ();
  (match t.journal with
  | Some j ->
      (* Invalidate the header before deleting: a crash between the two
         steps then leaves a journal recovery ignores (bad magic), and a
         journal held in a storage layer with its own commit granularity
         (e.g. a protected file) never exposes a valid magic once the
         transaction is committed. *)
      j.Svfs.v_write ~pos:0 (String.make 16 '\000');
      (* also shrink it where the layer supports truncation, so a later
         journal for the same path can never expose this one's stale
         entries through write holes *)
      j.Svfs.v_truncate 0;
      j.Svfs.v_sync ();
      j.Svfs.v_close ();
      t.vfs.Svfs.v_delete (journal_path t.path)
  | None -> ());
  t.journal <- None;
  t.in_txn <- false

let rollback t =
  if not t.in_txn then invalid_arg "Pager.rollback: not in a transaction";
  (* discard dirty cached pages and restore journaled pre-images *)
  Hashtbl.iter (fun i () -> Twine_sim.Lru.remove t.cache i) t.dirty;
  Hashtbl.reset t.dirty;
  (match t.journal with
  | Some j ->
      j.Svfs.v_close ();
      t.journal <- None
  | None -> ());
  t.in_txn <- false;
  recover t.vfs t.path;
  (* reload header and drop any cached page that may be stale *)
  Twine_sim.Lru.clear t.cache;
  if t.file.Svfs.v_size () >= 16 then read_header t
  else begin
    t.n_pages <- 1;
    t.freelist <- 0;
    write_header t
  end

let in_txn t = t.in_txn

let set_cache_pages t n =
  t.cache_pages <- max 8 n;
  evict_if_needed t

let stats t = (t.stats_reads, t.stats_writes, t.stats_hits)

let close t =
  if t.in_txn then rollback t;
  Twine_sim.Lru.clear t.cache;
  t.file.Svfs.v_close ()

let work t n = t.hooks.on_work n
