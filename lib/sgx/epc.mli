(** Enclave Page Cache simulator.

    The EPC is a machine-wide pool of resident 4 KiB pages shared by all
    enclaves. When a page that is not resident is touched, the kernel
    evicts the least-recently-used resident page (encrypting it out) and
    loads the requested one — the dominant cost once an enclave's working
    set exceeds the EPC (paper §III-A, §V-D). Because the pool is shared,
    one enclave's fault can evict {e another} enclave's page; the trace
    events and {!evictions_of} attribute each eviction to the enclave
    that owned the victim page. *)

type t

type page = int
(** Global page identifier: [(enclave_id lsl 40) lor page_number].
    Encode with {!page_of} (bounds-checked), decode with
    {!enclave_of_page} / {!page_no_of_page}. *)

val page_of : enclave_id:int -> page_no:int -> page
(** The only encoder. @raise Invalid_argument when [page_no] exceeds 40
    bits or [enclave_id] would overflow into the page bits — a collision
    that would silently alias pages between enclaves at fleet scale. *)

val enclave_of_page : page -> int
val page_no_of_page : page -> int
val max_page_no : int
val max_enclave_id : int

val create : ?obs:Twine_obs.Obs.t -> limit_bytes:int -> unit -> t
(** @raise Invalid_argument if the limit is below one page. Every touch
    counts [epc.hit] / [epc.fault] / [epc.evict] in [obs] (a private
    registry when absent), through counters resolved here. *)

val limit_pages : t -> int
val resident_pages : t -> int

val touch : t -> page -> [ `Hit | `Fault of page option ]
(** Access one page, promoting it; a hit allocates nothing. [`Fault
    victim] means it had to be brought in, with [victim = Some p] when
    the EPC was full and page [p] — possibly belonging to a different
    enclave — was encrypted out to make room (the expensive EWB path). *)

val release_enclave : t -> int -> unit
(** Drop all resident pages belonging to an enclave id (EREMOVE), its
    residency counter, and every eviction-provenance entry naming it as
    victim owner {e or} evictor — a destroyed enclave must never be
    blamed for (or credited with) future refaults, and victim-side
    entries for its evicted pages would otherwise leak forever. The
    historical {!evictions_of} count is kept: it describes the past. *)

val faults : t -> int
(** Total faults since creation. *)

val evictions : t -> int
(** Total pages evicted (encrypted out) to make room since creation. *)

val evictions_of : t -> int -> int
(** [evictions_of t id]: how many times one of enclave [id]'s pages was
    the eviction victim — the measure of cross-enclave EPC
    interference a shared fleet cares about. *)

val resident_of : t -> int -> int
(** Pages of enclave [id] currently resident. Sums to {!resident_pages}
    over the fleet; the serving simulator samples it per enclave as a
    residency time-series. *)

(** {2 Eviction provenance}

    When enclave A's fault evicts enclave B's page and B later touches
    that page again, B's refault is {e caused} by A. The EPC remembers
    the evictor of each cross-enclave victim page until the owner
    faults it back in, so the blame fires at most once per eviction. *)

val set_refault_hook : t -> (owner:int -> evictor:int -> unit) option -> unit
(** Install (or clear) a callback fired on each cross-enclave refault,
    with the page's owner and the enclave whose earlier fault evicted
    it. The serving fleet points this at the request currently being
    served, turning machine-level paging into per-request interference
    attribution. *)

val cross_refaults : t -> int
(** Total cross-enclave refaults since creation (also counted as the
    [epc.refault.cross] counter). *)
