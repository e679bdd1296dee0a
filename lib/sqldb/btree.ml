(* B+trees over the pager: one per table (keyed by 64-bit rowid, payload =
   encoded record) and one per index (key = encoded column values with the
   rowid appended, making every key unique).

   Every page holds a header, its cells and then zeros, and one codec
   serves every page: a page is searched and edited where it lies, never
   decoded into a structure. A search compares the rowid stored in a table
   cell, or the record bytes of an index cell ([Record.compare_sub]), and
   bisects the page's cell directory, as SQLite bisects a page's
   cell-pointer array: the 16-bit offsets of its cells in order, filled by
   one walk of the page on each visit, or arithmetic on a table interior
   page, whose cells are a fixed 12 bytes. The directory is never stored,
   so a page holds its cells alone and splits where it always did. A
   lookup walks a table leaf up to the rowid instead: its test, one int64
   load, costs no more than a step of the walk, and a bisection would
   first walk the whole page for the directory. An insert or a delete
   needs the end of the cells, which only that walk finds, so it bisects
   every page. An insert shifts the page's tail and writes one cell, a
   delete shifts it back and zero-fills the freed bytes. A page that no
   longer fits splits and passes its separators upwards: at its middle
   cell when both halves fit a page, else at the cut nearest the middle
   whose halves both fit, else in three pages, as SQLite's balance does
   (only cells of over half a page force that). Roots keep their page
   number (the catalog stores it), so a root split moves the old root's
   content to a fresh page. Underfull pages are not rebalanced on delete —
   like a SQLite database awaiting VACUUM, which we also provide at the Db
   layer. *)

let page_size = Pager.page_size
let content_start = 16
let max_payload = page_size - content_start - 16

exception Too_large of int

(* Page types (byte 0). Bytes 1-2 hold the cell count, bytes 3-6 an
   interior page's right child. The cells follow in key order:
   - table leaf      [rowid i64][len u16][payload]
   - table interior  [child u32][key i64]
   - index leaf      [len u16][key]
   - index interior  [child u32][len u16][key]
   An interior cell's child holds the keys up to and including its key,
   the right child those above the last one. *)
let table_leaf = 1
let table_interior = 2
let index_leaf = 3
let index_interior = 4

type kind = Table | Index

let put_i64 b off (v : int64) = Bytes.set_int64_le b off v
let put_u16 b off v = Bytes.set_uint16_le b off v
let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off)

let bad_type ty = Pager.Corrupt (Printf.sprintf "bad btree page type %d" ty)

(* --- the page codec --- *)

let page_type b = Bytes.get_uint8 b 0
let count b = Bytes.get_uint16_le b 1
let is_table b = page_type b <= table_interior

(* The bytes before a cell's tail: an interior cell's child link. *)
let link_len b =
  let ty = page_type b in
  if ty = table_interior || ty = index_interior then 4 else 0

let cell_size b off =
  match page_type b with
  | 1 -> 10 + Bytes.get_uint16_le b (off + 8)
  | 2 -> 12
  | 3 -> 2 + Bytes.get_uint16_le b off
  | _ -> 6 + Bytes.get_uint16_le b (off + 4)

let next_cell b off = off + cell_size b off

(* The offset of the [i]th cell of a table interior page. *)
let interior_cell i = content_start + (12 * i)

(* The cell directory of [b]: [off i] is the offset of its [i]th cell,
   and [off (count b)] the end of its cells. A table interior page's is
   arithmetic; any other page's is filled by one walk on each visit,
   since an edit moves every cell after it, and holds 16-bit offsets, as
   SQLite's cell-pointer array does: a quarter of the words of an int
   array. *)
let directory b =
  if page_type b = table_interior then interior_cell
  else begin
    let n = count b in
    (* [cell_size] for this page's type: a cell is [fixed] bytes and as
       many more as the u16 [len_at] bytes into it says *)
    let fixed, len_at = match page_type b with 1 -> (10, 8) | 3 -> (2, 0) | _ -> (6, 4) in
    let dir = Bytes.create (2 * (n + 1)) in
    Bytes.set_uint16_le dir 0 content_start;
    let at = ref content_start in
    for i = 1 to n do
      at := !at + fixed + Bytes.get_uint16_le b (!at + len_at);
      Bytes.set_uint16_le dir (2 * i) !at
    done;
    fun i -> Bytes.get_uint16_le dir (2 * i)
  end

(* The children of the [i]th to [n]th cells, exclusive, of interior page
   [b] with directory [off], in order. *)
let rec children b off i n = if i = n then [] else get_u32 b (off i) :: children b off (i + 1) n

(* An index cell's key follows its [len u16], which follows the child
   link in an interior page. *)
let key_len b off = Bytes.get_uint16_le b (off + link_len b)

(* The record in the cell at [off], ordered against [key]. *)
let compare_cell b off key = Record.compare_sub b (off + link_len b + 2) (key_len b off) key

(* Searches over cells in key order, where [below b off k] says whether
   the cell at [off] holds a key below [k]. *)

let rowid_below b off rowid = Bytes.get_int64_le b (off + link_len b) < rowid
let key_below b off key = compare_cell b off key < 0

(* The index of the first of the cells [lo] to [hi], exclusive, of [b]
   with directory [off] that is not below [k], or [hi] when there is
   none. *)
let rec bisect below b k off lo hi =
  if lo = hi then lo
  else
    let mid = (lo + hi) / 2 in
    if below b (off mid) k then bisect below b k off (mid + 1) hi else bisect below b k off lo mid

(* The offset of the first of the [i] cells from [off] that is not below
   [k], or -1 when there is none: a lookup's search of a table leaf. *)
let rec walk below b k off i =
  if i = 0 then -1 else if below b off k then walk below b k (next_cell b off) (i - 1) else off

(* The offset of the first cell of [b] that is not below [k], or -1 when
   there is none. *)
let find below b k =
  let n = count b in
  if page_type b = table_leaf then walk below b k content_start n
  else
    let off = directory b in
    let i = bisect below b k off 0 n in
    if i < n then off i else -1

(* Where a cell for [k] goes in [b]: the offset of the first cell not
   below [k] (the end of the cells when there is none), and the end of
   the cells. *)
let place below b k =
  let n = count b and off = directory b in
  (off (bisect below b k off 0 n), off n)

(* The child an interior page's [find] leads to: the cell's, or the right
   child when the search ran past the last cell. *)
let child_at b at = get_u32 b (if at < 0 then 3 else at)

(* A page emptied to a header of type [ty] and zeros. *)
let init_page b ty =
  Bytes.fill b 0 page_size '\000';
  Bytes.set_uint8 b 0 ty

let modify_page pager page =
  Pager.work pager 1;
  Pager.modify pager page

let read_tree pager page =
  Pager.work pager 1;
  let b = Pager.read_page pager page in
  let ty = page_type b in
  if ty < table_leaf || ty > index_interior then raise (bad_type ty);
  b

(* A page of a tree of [kind]. *)
let tree_page pager kind page =
  let b = read_tree pager page in
  (match (kind, is_table b) with
  | Table, false -> raise (Pager.Corrupt "table op on index page")
  | Index, true -> raise (Pager.Corrupt "index op on table page")
  | _ -> ());
  b

(* Writes at [at] of image [b] the cell whose bytes after its child link
   are [tail], shifting the cells from [at] to [stop] up to make room. In
   an interior page the cell's child is [child], and the link that
   followed [at], the next cell's child or (at [stop]) the right child,
   becomes [link]. *)
let insert_cell b ~at ~stop ~child ~link tail =
  let l = link_len b and len = String.length tail in
  Bytes.blit b at b (at + l + len) (stop - at);
  Bytes.blit_string tail 0 b (at + l) len;
  put_u16 b 1 (count b + 1);
  if l > 0 then begin
    put_u32 b at child;
    put_u32 b (if at < stop then at + l + len else 3) link
  end

(* Removes the cell at [at] of image [b], whose cells end at [stop]: the
   cells after it close up and the freed bytes become zeros. Returns the
   new end of the cells. *)
let drop_cell b ~at ~stop =
  let size = cell_size b at in
  Bytes.blit b (at + size) b at (stop - at - size);
  Bytes.fill b (stop - size) size '\000';
  put_u16 b 1 (count b - 1);
  stop - size

(* Deletes from the tree of [kind] at [page] the leaf cell that [holds]
   [k], searching for it with [below]; returns whether there was one. *)
let rec delete pager kind ~below ~holds page k =
  let b = tree_page pager kind page in
  let at, stop = place below b k in
  if link_len b > 0 then delete pager kind ~below ~holds (get_u32 b (if at < stop then at else 3)) k
  else begin
    let found = at < stop && holds b at k in
    if found then ignore (drop_cell (modify_page pager page) ~at ~stop);
    found
  end

(* The bytes [cells], a list of (tail, link), take in page [b]. *)
let cells_size b cells =
  List.fold_left (fun n (tail, _) -> n + link_len b + String.length tail) 0 cells

(* Writes [cells] from [at] on, as [insert_cell] does: the first cell's
   child is [child] and each next one's the link of the one before. *)
let rec write_cells b ~at ~stop ~child = function
  | [] -> ()
  | (tail, link) :: rest ->
      insert_cell b ~at ~stop ~child ~link tail;
      let size = link_len b + String.length tail in
      write_cells b ~at:(at + size) ~stop:(stop + size) ~child:link rest

(* [write_cells], after dropping the cell at [at] when it is [replace]d. *)
let edit b ~at ~stop ~replace ~child cells =
  let stop = if replace then drop_cell b ~at ~stop else stop in
  write_cells b ~at ~stop ~child cells

(* Splits an over-full image of [page] into runs of cells that each fit a
   page: two at the middle cell when both fit, else two at the cut nearest
   the middle whose runs fit, else three, the first taking the longest run
   from the front that fits and the last the longest from the back. The
   first run stays in [page] and each next one goes to a fresh page. A
   leaf run's separator is its last key; an interior image gives up the
   cell at each cut, whose child becomes the right child of the run before
   it. Returns each separator's tail with the page after it.

   Three runs always suffice: a leaf image is a page that fitted plus one
   cell, and runs before and after that cell fit; an interior image is a
   page that fitted plus the one or two adjacent separators of a child's
   split, and the same holds around them. *)
let split pager page img =
  let ty = page_type img and n = count img and l = link_len img in
  let leaf = l = 0 in
  let off = directory img in
  (* cells [i, j) fit a page; the run after a cut at [k] starts at
     [resume k]; a leaf run is never empty *)
  let fits i j = content_start + off j - off i <= page_size in
  let resume k = if leaf then k else k + 1 in
  let first = if leaf then 1 else 0 in
  let halves k = first <= k && k < n && fits 0 k && fits (resume k) n in
  let mid = n / 2 in
  let rec nearest d =
    if halves (mid - d) then Some (mid - d)
    else if halves (mid + d) then Some (mid + d)
    else if mid - d < first && mid + d >= n then None
    else nearest (d + 1)
  in
  let cuts =
    match nearest 0 with
    | Some k -> [ k ]
    | None ->
        let rec front k = if k + 1 < n && fits 0 (k + 1) then front (k + 1) else k in
        let rec back k = if k > first && fits (resume (k - 1)) n then back (k - 1) else k in
        [ front first; back (n - 1) ]
  in
  let sep k =
    let c = if leaf then k - 1 else k in
    let s = off c + l in
    Bytes.sub_string img s (if is_table img then 8 else off (c + 1) - s)
  in
  let rec write from pages cuts =
    let upto = match cuts with k :: _ -> k | [] -> n in
    let b = modify_page pager (List.hd pages) in
    init_page b ty;
    Bytes.blit img (off from) b content_start (off upto - off from);
    put_u16 b 1 (upto - from);
    if not leaf then put_u32 b 3 (get_u32 img (if upto < n then off upto else 3));
    match (cuts, pages) with
    | k :: cuts, _ :: (next :: _ as pages) -> (sep k, next) :: write (resume k) pages cuts
    | _ -> []
  in
  write 0 (page :: List.map (fun _ -> Pager.alloc pager) cuts) cuts

(* Writes [cells] into a scratch copy of [page]'s image [b], which they
   grow to [grown] bytes, and splits it. *)
let spill pager page b ~at ~stop ~replace ~child cells ~grown =
  let img = Bytes.create grown in
  Bytes.blit b 0 img 0 stop;
  edit img ~at ~stop ~replace ~child cells;
  split pager page img

(* Puts [cells] into [page], read as [b], at [at], as [edit] does; returns
   the separators of the split when the page overflows, [] when not. *)
let add_cells pager page b ~at ~stop ~replace ~child cells =
  let grown = stop - (if replace then cell_size b at else 0) + cells_size b cells in
  if grown <= page_size then begin
    edit (modify_page pager page) ~at ~stop ~replace ~child cells;
    []
  end
  else spill pager page b ~at ~stop ~replace ~child cells ~grown

(* A split root keeps its page number: its content moves to a fresh page,
   and the root becomes an interior page over that page and the ones the
   split made. *)
let rec grow_root pager root = function
  | [] -> ()
  | seps ->
      let old = read_tree pager root in
      let ty = if is_table old then table_interior else index_interior in
      let left = Pager.alloc pager in
      Bytes.blit old 0 (modify_page pager left) 0 page_size;
      let b = modify_page pager root in
      init_page b ty;
      let at = content_start in
      let grown = at + cells_size b seps in
      if grown <= page_size then write_cells b ~at ~stop:at ~child:left seps
      else
        grow_root pager root
          (spill pager root b ~at ~stop:at ~replace:false ~child:left seps ~grown)

(* Collect every page of a tree (for DROP, VACUUM and [init]). *)
let rec pages pager ~root =
  let b = read_tree pager root in
  if link_len b = 0 then [ root ]
  else
    let children = children b (directory b) 0 (count b) and right = get_u32 b 3 in
    root :: List.concat_map (fun c -> pages pager ~root:c) children @ pages pager ~root:right

(* --- creation --- *)

(* Makes [page] an empty leaf of a [kind] tree. The pages below it, when
   it was an interior page, go back to the pager; a leaf or a fresh page
   takes one [modify]. *)
let init pager page kind =
  let b = modify_page pager page in
  let below = if link_len b = 0 then [] else children b (directory b) 0 (count b) @ [ get_u32 b 3 ] in
  init_page b (match kind with Table -> table_leaf | Index -> index_leaf);
  List.iter (fun c -> List.iter (Pager.free pager) (pages pager ~root:c)) below

let create pager kind =
  let page = Pager.alloc pager in
  init pager page kind;
  page

(* --- table trees --- *)

(* The payload of the leaf cell at [off]. *)
let payload b off = Bytes.sub_string b (off + 10) (Bytes.get_uint16_le b (off + 8))

let rec table_insert pager page rowid cell =
  let b = tree_page pager Table page in
  let at, stop = place rowid_below b rowid in
  if link_len b = 0 then
    let replace = at < stop && Int64.equal (Bytes.get_int64_le b at) rowid in
    add_cells pager page b ~at ~stop ~replace ~child:0 [ (cell, 0) ]
  else
    let child = get_u32 b (if at < stop then at else 3) in
    match table_insert pager child rowid cell with
    | [] -> []
    | seps -> add_cells pager page b ~at ~stop ~replace:false ~child seps

let insert_table pager ~root ~rowid payload =
  let len = String.length payload in
  if len > max_payload then raise (Too_large len);
  let cell = Bytes.create (10 + len) in
  put_i64 cell 0 rowid;
  put_u16 cell 8 len;
  Bytes.blit_string payload 0 cell 10 len;
  grow_root pager root (table_insert pager root rowid (Bytes.unsafe_to_string cell))

let rec lookup_table pager ~root rowid =
  let b = tree_page pager Table root in
  let at = find rowid_below b rowid in
  if link_len b > 0 then lookup_table pager ~root:(child_at b at) rowid
  else if at >= 0 && Int64.equal (Bytes.get_int64_le b at) rowid then Some (payload b at)
  else None

let delete_table pager ~root rowid =
  let holds b off rowid = Int64.equal (Bytes.get_int64_le b off) rowid in
  delete pager Table ~below:rowid_below ~holds root rowid

let rec max_rowid pager ~root =
  let b = tree_page pager Table root in
  let n = count b in
  if link_len b = 0 then
    if n = 0 then None else Some (Bytes.get_int64_le b (directory b (n - 1)))
  else
    match max_rowid pager ~root:(get_u32 b 3) with
    | Some r -> Some r
    | None ->
        (* right subtree empty (possible after deletes): try others *)
        List.fold_left
          (fun acc child ->
            match max_rowid pager ~root:child with
            | Some r -> Some (max r (Option.value acc ~default:Int64.min_int))
            | None -> acc)
          None
          (children b interior_cell 0 n)

exception Stop

(* The children of table interior page [b], from its [i]th of [n] on (the
   [n]th is the right child), that can hold rowids up to [max], in order:
   each one after the first holds only the rowids above the key of the
   cell before it. *)
let rec children_upto b ~max i n =
  if i > 0 && Bytes.get_int64_le b (interior_cell (i - 1) + 4) >= max then []
  else if i = n then [ get_u32 b 3 ]
  else get_u32 b (interior_cell i) :: children_upto b ~max (i + 1) n

(* The rows of table leaf [b] whose rowids lie in [min, max], from the
   cell at [off] with [i] cells left, copied out of the page; the walk
   stops at the first rowid above [max]. *)
let rec rows_in b ~min ~max off i =
  if i = 0 then []
  else
    let r = Bytes.get_int64_le b off in
    if r > max then []
    else if r >= min then (r, payload b off) :: rows_in b ~min ~max (next_cell b off) (i - 1)
    else rows_in b ~min ~max (next_cell b off) (i - 1)

(* [visit] of each leaf of the table tree at [page] that can hold rowids
   in [min, max], in order: an interior page's children from that of its
   first key not below [min]. *)
let rec leaves pager page ~min ~max visit =
  let b = tree_page pager Table page in
  if link_len b = 0 then visit b
  else
    let n = count b in
    List.iter
      (fun child -> leaves pager child ~min ~max visit)
      (children_upto b ~max (bisect rowid_below b min interior_cell 0 n) n)

(* In-order iteration over [min, max]; f returns false to stop. A leaf's
   rows are copied out before its first callback runs, since a callback
   may use the pager. *)
let iter_table pager ~root ?(min = Int64.min_int) ?(max = Int64.max_int) f =
  try
    leaves pager root ~min ~max (fun b ->
        List.iter
          (fun (r, p) -> if not (f r p) then raise Stop)
          (rows_in b ~min ~max content_start (count b)))
  with Stop -> ()

let count_table pager ~root =
  let n = ref 0 in
  leaves pager root ~min:Int64.min_int ~max:Int64.max_int (fun b -> n := !n + count b);
  !n

(* --- index trees --- *)

let rec index_insert pager page key cell =
  let b = tree_page pager Index page in
  let at, stop = place key_below b key in
  if link_len b = 0 then
    if at < stop && compare_cell b at key = 0 then begin
      (* duplicate composite key: the leaf is rewritten unchanged *)
      ignore (modify_page pager page);
      []
    end
    else add_cells pager page b ~at ~stop ~replace:false ~child:0 [ (cell, 0) ]
  else
    let child = get_u32 b (if at < stop then at else 3) in
    match index_insert pager child key cell with
    | [] -> []
    | seps -> add_cells pager page b ~at ~stop ~replace:false ~child seps

let insert_index pager ~root key =
  let len = String.length key in
  if len > max_payload then raise (Too_large len);
  let cell = Bytes.create (2 + len) in
  put_u16 cell 0 len;
  Bytes.blit_string key 0 cell 2 len;
  grow_root pager root (index_insert pager root key (Bytes.unsafe_to_string cell))

let rec same_bytes b off key i =
  i = String.length key || (Bytes.get b (off + i) = key.[i] && same_bytes b off key (i + 1))

(* Whether the leaf cell at [off] holds [key] byte for byte. *)
let holds b off key = key_len b off = String.length key && same_bytes b (off + 2) key 0

let delete_index pager ~root key = delete pager Index ~below:key_below ~holds root key

(* [f] of each key in leaf cells [cells], from the one at [at]; raises
   [Stop] when [f] returns false. *)
let rec each_key f cells at =
  if at < Bytes.length cells then begin
    let len = Bytes.get_uint16_le cells at in
    if not (f (Bytes.sub_string cells (at + 2) len)) then raise Stop;
    each_key f cells (at + 2 + len)
  end

(* Cells [i] to [n], exclusive, of [b] with directory [off], copied out
   in runs of under 2 KiB where a cell allows: a block of 2 KiB or more
   would be allocated outside the minor heap. *)
let rec copy_cells b off i n =
  if i = n then []
  else
    let rec upto j = if j < n && off (j + 1) - off i < 2048 then upto (j + 1) else j in
    let j = Int.max (i + 1) (upto i) in
    Bytes.sub b (off i) (off j - off i) :: copy_cells b off j n

(* Iterate keys >= start (or all when [start] is None) in order; f returns
   false to stop. Only the first leaf visited can hold keys below
   [start], so the pages down to it are bisected for [start] and every
   later page starts at its first cell. A leaf's cells from there on are
   copied out before its first callback runs, since a callback may use
   the pager, and a key becomes a string only when it is passed to [f]. *)
let iter_index pager ~root ?start f =
  let rec go start page =
    let b = tree_page pager Index page in
    let n = count b and off = directory b in
    let i = match start with Some k -> bisect key_below b k off 0 n | None -> 0 in
    if link_len b = 0 then List.iter (fun cells -> each_key f cells 0) (copy_cells b off i n)
    else
      let right = get_u32 b 3 in
      match children b off i n with
      | first :: later ->
          go start first;
          List.iter (go None) later;
          go None right
      | [] -> go start right
  in
  try go start root with Stop -> ()
