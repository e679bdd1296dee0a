(** Int-keyed LRU cache with O(1) find/put/remove.

    Shared by the EPC resident-page set (page ids), the protected-FS
    node cache (node indexes) and the database page cache (page numbers):
    the three caches whose interplay produces the paper's performance
    cliffs. Hits, puts of a present key and removals allocate nothing. *)

type 'v t

val create : capacity:int -> unit -> 'v t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'v t -> int
val length : 'v t -> int

val find : 'v t -> int -> 'v
(** Promotes the entry to most-recently-used.
    @raise Not_found when the key is absent. *)

val peek : 'v t -> int -> 'v option
(** Like {!find} but without promotion. *)

val put : 'v t -> int -> 'v -> (int * 'v) option
(** Insert or update (promoting). Returns the evicted LRU entry if the
    cache was full and a different key had to make room. *)

val remove : 'v t -> int -> unit
(** No-op when the key is absent. *)

val trim : 'v t -> int -> pinned:(int -> bool) -> unit
(** [trim t n ~pinned] removes up to [n] entries, least recently used
    first, passing over the keys [pinned] holds. *)

val to_list : 'v t -> (int * 'v) list
(** Most-recently-used first. *)

val clear : 'v t -> unit
