open Twine_sim

type page = int

(* --- enclave/page tag packing ---

   A global page identifier packs the owning enclave id above the page
   number. The encode/decode lives here, in one place, because the tag
   scheme is load-bearing at fleet scale: an enclave id spilling into the
   page bits would silently alias another enclave's pages (an EPC "hit"
   on memory the enclave never touched) and corrupt every per-enclave
   statistic derived from the tag. [page_of] is the only encoder and it
   bounds-checks both halves. *)

let page_no_bits = 40
let max_page_no = (1 lsl page_no_bits) - 1
let max_enclave_id = max_int lsr page_no_bits

let[@inline] page_of ~enclave_id ~page_no =
  if page_no < 0 || page_no > max_page_no then
    invalid_arg "Epc.page_of: page_no out of range";
  if enclave_id < 0 || enclave_id > max_enclave_id then
    invalid_arg "Epc.page_of: enclave_id out of range";
  (enclave_id lsl page_no_bits) lor page_no

let enclave_of_page p = p lsr page_no_bits
let page_no_of_page p = p land max_page_no

module Obs = Twine_obs.Obs

type t = {
  resident : unit Lru.t;
  obs : Obs.t;
  hit : Obs.counter;
  fault : Obs.counter;
  evict : Obs.counter;
  refault_cross : Obs.counter;
  mutable fault_count : int;
  mutable eviction_count : int;
  victim_counts : (int, int) Hashtbl.t;
      (* enclave id -> times one of its pages was evicted *)
  resident_counts : (int, int) Hashtbl.t;
      (* enclave id -> pages currently resident (sums to Lru.length) *)
  evicted_by : (page, int) Hashtbl.t;
      (* victim page -> enclave whose fault evicted it, kept only for
         cross-enclave evictions until the owner faults it back in *)
  mutable cross_refault_count : int;
  mutable on_cross_refault : (owner:int -> evictor:int -> unit) option;
}

let create ?obs ~limit_bytes () =
  let pages = limit_bytes / Costs.page_size in
  if pages < 1 then invalid_arg "Epc.create: limit below one page";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    resident = Lru.create ~capacity:pages ();
    obs;
    hit = Obs.counter obs "epc.hit";
    fault = Obs.counter obs "epc.fault";
    evict = Obs.counter obs "epc.evict";
    refault_cross = Obs.counter obs "epc.refault.cross";
    fault_count = 0;
    eviction_count = 0;
    victim_counts = Hashtbl.create 16;
    resident_counts = Hashtbl.create 16;
    evicted_by = Hashtbl.create 64;
    cross_refault_count = 0;
    on_cross_refault = None;
  }

let limit_pages t = Lru.capacity t.resident
let resident_pages t = Lru.length t.resident

(* Timeline events for the paging that the aggregate counters summarise:
   each fault/eviction lands as an instant tagged with the enclave and
   page number, plus a resident-pages counter track. Hits stay off the
   timeline — they dominate event volume and carry no cliff signal. An
   eviction is tagged with the *victim* page (the one encrypted out),
   plus the enclave whose fault forced it, so cross-enclave interference
   is visible per event. Callers check [traced] first, so an untraced
   fault builds no arguments. *)
let traced t = Option.is_some (Obs.tracer t.obs)

let trace_paging t name page extra =
  let args = ("enclave", enclave_of_page page) :: ("page", page_no_of_page page) :: extra in
  Obs.emit t.obs ~cat:"epc" ~args name;
  Obs.emit_counter t.obs ~cat:"epc" "epc.resident" [ ("pages", Lru.length t.resident) ]

let bump tbl key d =
  let n = try Hashtbl.find tbl key with Not_found -> 0 in
  Hashtbl.replace tbl key (n + d)

(* A refault of a page that a *different* enclave's fault pushed out is
   the per-request face of EPC interference: the victim enclave pays the
   re-encryption cost, the evictor caused it. The provenance entry lives
   from the eviction until the owner faults the page back in, so each
   cross-eviction is blamed at most once. *)
let note_refault t page =
  match Hashtbl.find_opt t.evicted_by page with
  | None -> ()
  | Some evictor ->
      Hashtbl.remove t.evicted_by page;
      t.cross_refault_count <- t.cross_refault_count + 1;
      Obs.inc t.refault_cross;
      (match t.on_cross_refault with
      | Some f -> f ~owner:(enclave_of_page page) ~evictor
      | None -> ())

let set_refault_hook t f = t.on_cross_refault <- f
let cross_refaults t = t.cross_refault_count

let page_in t page =
  t.fault_count <- t.fault_count + 1;
  Obs.inc t.fault;
  note_refault t page;
  bump t.resident_counts (enclave_of_page page) 1;
  let victim =
    match Lru.put t.resident page () with
    | Some (victim, ()) ->
        t.eviction_count <- t.eviction_count + 1;
        bump t.victim_counts (enclave_of_page victim) 1;
        bump t.resident_counts (enclave_of_page victim) (-1);
        let by = enclave_of_page page in
        if by <> enclave_of_page victim then
          Hashtbl.replace t.evicted_by victim by;
        Obs.inc t.evict;
        if traced t then trace_paging t "epc.evict" victim [ ("by", by) ];
        Some victim
    | None -> None
  in
  if traced t then trace_paging t "epc.fault" page [];
  `Fault victim

(* A hit is one probe and one relink in the resident set. *)
let touch t page =
  match Lru.find t.resident page with
  | () ->
      Obs.inc t.hit;
      `Hit
  | exception Not_found -> page_in t page

let release_enclave t enclave_id =
  List.iter
    (fun (page, ()) -> if enclave_of_page page = enclave_id then Lru.remove t.resident page)
    (Lru.to_list t.resident);
  Hashtbl.remove t.resident_counts enclave_id;
  (* Provenance hygiene for destroy-then-relaunch fleets: drop every
     eviction-provenance entry that names the dead enclave on EITHER
     side. Victim-side entries for its already-evicted (non-resident)
     pages would leak forever — the owner can never fault them back in.
     Evictor-side entries would blame a destroyed enclave (or, worse, a
     later enclave reusing the id) when the surviving owner refaults. *)
  Hashtbl.filter_map_inplace
    (fun page evictor ->
      if enclave_of_page page = enclave_id || evictor = enclave_id then None
      else Some evictor)
    t.evicted_by

let faults t = t.fault_count
let evictions t = t.eviction_count

let evictions_of t enclave_id =
  try Hashtbl.find t.victim_counts enclave_id with Not_found -> 0

let resident_of t enclave_id =
  try Hashtbl.find t.resident_counts enclave_id with Not_found -> 0
