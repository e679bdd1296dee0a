(* B+trees over the pager: one per table (keyed by 64-bit rowid, payload =
   encoded record) and one per index (key = encoded column values with the
   rowid appended, making every key unique).

   Every page holds a header, its cells and then zeros. A table page
   decodes to a structured node, is modified functionally, and is
   re-encoded. An index page is searched and edited where it lies: a
   compare walks a cell's bytes ([Record.compare_sub]), an insert shifts
   the page's tail and writes one cell, a delete shifts it back. A node
   that no longer fits splits, propagating a separator upwards. Roots
   keep their page number (the catalog stores it), so a root split moves
   the old root's content to a fresh page. Underfull pages are not
   rebalanced on delete — like a SQLite database awaiting VACUUM, which
   we also provide at the Db layer. *)

let page_size = Pager.page_size
let content_start = 16
let max_payload = page_size - content_start - 16

exception Too_large of int

(* Page types (byte 0). Bytes 1-2 hold the cell count, bytes 3-6 an
   interior page's right child. *)
let table_leaf = 1
let table_interior = 2
let index_leaf = 3
let index_interior = 4

type node =
  | Table_leaf of (int64 * string) list  (* sorted by rowid *)
  | Table_interior of (int * int64) list * int  (* (child, max key) + right *)

(* --- encoding --- *)

let node_type = function Table_leaf _ -> table_leaf | Table_interior _ -> table_interior

let put_i64 b off (v : int64) = Bytes.set_int64_le b off v
let put_u16 b off v = Bytes.set_uint16_le b off v
let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off)

let bad_type ty = Pager.Corrupt (Printf.sprintf "bad btree page type %d" ty)

let encode_node b node =
  Bytes.fill b 0 page_size '\000';
  Bytes.set_uint8 b 0 (node_type node);
  let pos = ref content_start in
  let count = ref 0 in
  (match node with
  | Table_leaf cells ->
      List.iter
        (fun (rowid, payload) ->
          put_i64 b !pos rowid;
          put_u16 b (!pos + 8) (String.length payload);
          Bytes.blit_string payload 0 b (!pos + 10) (String.length payload);
          pos := !pos + 10 + String.length payload;
          incr count)
        cells
  | Table_interior (cells, right) ->
      put_u32 b 3 right;
      List.iter
        (fun (child, key) ->
          put_u32 b !pos child;
          put_i64 b (!pos + 4) key;
          pos := !pos + 12;
          incr count)
        cells);
  put_u16 b 1 !count

let node_size node =
  content_start
  +
  match node with
  | Table_leaf cells ->
      List.fold_left (fun a (_, p) -> a + 10 + String.length p) 0 cells
  | Table_interior (cells, _) -> 12 * List.length cells

let decode_node b =
  let count = Bytes.get_uint16_le b 1 in
  let pos = ref content_start in
  match Bytes.get_uint8 b 0 with
  | 1 ->
      Table_leaf
        (List.init count (fun _ ->
             let rowid = Bytes.get_int64_le b !pos in
             let len = Bytes.get_uint16_le b (!pos + 8) in
             let payload = Bytes.sub_string b (!pos + 10) len in
             pos := !pos + 10 + len;
             (rowid, payload)))
  | 2 ->
      let right = get_u32 b 3 in
      Table_interior
        ( List.init count (fun _ ->
              let child = get_u32 b !pos in
              let key = Bytes.get_int64_le b (!pos + 4) in
              pos := !pos + 12;
              (child, key)),
          right )
  | 3 | 4 -> raise (Pager.Corrupt "table op on index page")
  | ty -> raise (bad_type ty)

let read_node pager page =
  Pager.work pager 1;
  decode_node (Pager.read_page pager page)

let write_node pager page node =
  Pager.work pager 1;
  encode_node (Pager.modify pager page) node

(* A page emptied to a header of type [ty] and zeros, as [encode_node]
   leaves an empty node. *)
let init_page b ty =
  Bytes.fill b 0 page_size '\000';
  Bytes.set_uint8 b 0 ty

let modify_page pager page =
  Pager.work pager 1;
  Pager.modify pager page

(* --- creation --- *)

type kind = Table | Index

let create pager kind =
  let page = Pager.alloc pager in
  (match kind with
  | Table -> write_node pager page (Table_leaf [])
  | Index -> init_page (modify_page pager page) index_leaf);
  page

(* --- table trees --- *)

let rec table_insert pager page rowid payload =
  match read_node pager page with
  | Table_leaf cells ->
      let rec place = function
        | [] -> [ (rowid, payload) ]
        | (r, p) :: rest ->
            if r = rowid then (rowid, payload) :: rest
            else if r > rowid then (rowid, payload) :: (r, p) :: rest
            else (r, p) :: place rest
      in
      let cells = place cells in
      let node = Table_leaf cells in
      if node_size node <= page_size then begin
        write_node pager page node;
        None
      end
      else begin
        (* split at the midpoint cell *)
        let n = List.length cells in
        let mid = n / 2 in
        let left = List.filteri (fun i _ -> i < mid) cells in
        let right = List.filteri (fun i _ -> i >= mid) cells in
        let sep = fst (List.nth cells (mid - 1)) in
        let right_page = Pager.alloc pager in
        write_node pager page (Table_leaf left);
        write_node pager right_page (Table_leaf right);
        Some (sep, right_page)
      end
  | Table_interior (cells, right) -> (
      let rec choose = function
        | [] -> (right, `Right)
        | (child, key) :: rest ->
            if rowid <= key then (child, `Cell key) else choose rest
      in
      let child, which = choose cells in
      match table_insert pager child rowid payload with
      | None -> None
      | Some (sep, new_page) ->
          let cells, right =
            match which with
            | `Cell key ->
                ( List.concat_map
                    (fun (c, k) ->
                      if c = child && k = key then [ (child, sep); (new_page, key) ]
                      else [ (c, k) ])
                    cells,
                  right )
            | `Right -> (cells @ [ (child, sep) ], new_page)
          in
          let node = Table_interior (cells, right) in
          if node_size node <= page_size then begin
            write_node pager page node;
            None
          end
          else begin
            let n = List.length cells in
            let mid = n / 2 in
            let lcells = List.filteri (fun i _ -> i < mid) cells in
            let mchild, mkey = List.nth cells mid in
            let rcells = List.filteri (fun i _ -> i > mid) cells in
            let right_page = Pager.alloc pager in
            write_node pager page (Table_interior (lcells, mchild));
            write_node pager right_page (Table_interior (rcells, right));
            Some (mkey, right_page)
          end)

let insert_table pager ~root ~rowid payload =
  if String.length payload > max_payload then raise (Too_large (String.length payload));
  match table_insert pager root rowid payload with
  | None -> ()
  | Some (sep, right_page) ->
      (* root-preserving split *)
      let old = read_node pager root in
      let left_page = Pager.alloc pager in
      write_node pager left_page old;
      write_node pager root (Table_interior ([ (left_page, sep) ], right_page))

let rec lookup_table pager ~root rowid =
  match read_node pager root with
  | Table_leaf cells ->
      List.find_map (fun (r, p) -> if r = rowid then Some p else None) cells
  | Table_interior (cells, right) ->
      let rec choose = function
        | [] -> right
        | (child, key) :: rest -> if rowid <= key then child else choose rest
      in
      lookup_table pager ~root:(choose cells) rowid

let rec delete_table pager ~root rowid =
  match read_node pager root with
  | Table_leaf cells ->
      let found = List.mem_assoc rowid cells in
      if found then
        write_node pager root (Table_leaf (List.remove_assoc rowid cells));
      found
  | Table_interior (cells, right) ->
      let rec choose = function
        | [] -> right
        | (child, key) :: rest -> if rowid <= key then child else choose rest
      in
      delete_table pager ~root:(choose cells) rowid

let rec max_rowid pager ~root =
  match read_node pager root with
  | Table_leaf cells -> (
      match List.rev cells with [] -> None | (r, _) :: _ -> Some r)
  | Table_interior (cells, right) -> (
      match max_rowid pager ~root:right with
      | Some r -> Some r
      | None ->
          (* right subtree empty (possible after deletes): try others *)
          List.fold_left
            (fun acc (child, _) ->
              match max_rowid pager ~root:child with
              | Some r -> Some (max r (Option.value acc ~default:Int64.min_int))
              | None -> acc)
            None cells)

exception Stop

(* In-order iteration over [min, max]; f returns false to stop. *)
let iter_table pager ~root ?(min = Int64.min_int) ?(max = Int64.max_int) f =
  let rec go page lower =
    match read_node pager page with
    | Table_leaf cells ->
        List.iter
          (fun (r, p) ->
            if Int64.compare r min >= 0 && Int64.compare r max <= 0 then
              if not (f r p) then raise Stop)
          cells
    | Table_interior (cells, right) ->
        let prev = ref lower in
        List.iter
          (fun (child, key) ->
            (* child covers (prev, key] *)
            if Int64.compare key min >= 0 && Int64.compare !prev max < 0 then
              go child !prev;
            prev := key)
          cells;
        if Int64.compare !prev max < 0 then go right !prev
  in
  try go root Int64.min_int with Stop -> ()

let count_table pager ~root =
  let n = ref 0 in
  iter_table pager ~root (fun _ _ ->
      incr n;
      true);
  !n

(* --- index trees, on their pages --- *)

(* A leaf cell is [len u16][key]; an interior cell is [child u32][len
   u16][key], its child holding the keys up to and including [key]. [hdr]
   is the size of the bytes before the key: 2 in a leaf, 6 in an interior
   page. *)

let cell_hdr b = if Bytes.get_uint8 b 0 = index_interior then 6 else 2
let count b = Bytes.get_uint16_le b 1
let key_len b hdr off = Bytes.get_uint16_le b (off + hdr - 2)
let next_cell b hdr off = off + hdr + key_len b hdr off

(* The offset of the [i]th cell after the one at [off]. *)
let rec skip_cells b hdr off i = if i = 0 then off else skip_cells b hdr (next_cell b hdr off) (i - 1)

(* Where the cells end and the zeros start. *)
let cells_end b hdr = skip_cells b hdr content_start (count b)

(* The record in the cell at [off], ordered against [key]. *)
let compare_cell b hdr off key = Record.compare_sub b (off + hdr) (key_len b hdr off) key

let index_page pager page =
  Pager.work pager 1;
  let b = Pager.read_page pager page in
  let ty = Bytes.get_uint8 b 0 in
  if ty <> index_leaf && ty <> index_interior then
    raise
      (if ty = table_leaf || ty = table_interior then Pager.Corrupt "index op on table page"
       else bad_type ty);
  b

(* The offset of the first of the [i] cells from [off] whose key is not
   below [key], or the offset after them when there is none. *)
let rec find_from b hdr key off i =
  if i > 0 && compare_cell b hdr off key < 0 then find_from b hdr key (next_cell b hdr off) (i - 1)
  else off

let find_cell b hdr key = find_from b hdr key content_start (count b)

(* Writes cell ([child], [key]) at [at] of image [b], shifting the cells
   from [at] to [stop] up to make room. In an interior page the link that
   followed [at], the next cell's child or (at [stop]) the right child,
   becomes [link]. *)
let insert_cell b hdr ~at ~stop ~child ~link key =
  let len = String.length key in
  Bytes.blit b at b (at + hdr + len) (stop - at);
  put_u16 b (at + hdr - 2) len;
  Bytes.blit_string key 0 b (at + hdr) len;
  put_u16 b 1 (count b + 1);
  if hdr = 6 then begin
    put_u32 b at child;
    put_u32 b (if at < stop then at + hdr + len else 3) link
  end

(* Splits an over-full image of [page], whose cells end at [stop], in
   two: the lower half of the cells stays and the upper half moves to a
   fresh page. A leaf's separator is its last kept key; an interior image
   gives its middle cell up, whose child becomes the kept half's right
   child. *)
let split pager page img ~stop =
  let hdr = cell_hdr img and n = count img in
  let mid = n / 2 and leaf = hdr = 2 in
  let last_kept = skip_cells img hdr content_start (mid - 1) in
  let cut = next_cell img hdr last_kept in
  let sep_at = if leaf then last_kept else cut in
  let sep = Bytes.sub_string img (sep_at + hdr) (key_len img hdr sep_at) in
  let moved = if leaf then cut else next_cell img hdr cut in
  let right_page = Pager.alloc pager in
  let b = modify_page pager page in
  let rb = modify_page pager right_page in
  Bytes.blit img 0 b 0 cut;
  Bytes.fill b cut (page_size - cut) '\000';
  put_u16 b 1 mid;
  init_page rb (Bytes.get_uint8 img 0);
  put_u16 rb 1 (if leaf then n - mid else n - mid - 1);
  if not leaf then begin
    put_u32 b 3 (get_u32 img cut);
    put_u32 rb 3 (get_u32 img 3)
  end;
  Bytes.blit img moved rb content_start (stop - moved);
  Some (sep, right_page)

(* Inserts a cell into [page], read as [b], as [insert_cell] does;
   returns the split when the page overflows. *)
let add_cell pager page b hdr ~at ~stop ~child ~link key =
  let size = hdr + String.length key in
  if stop + size <= page_size then begin
    insert_cell (modify_page pager page) hdr ~at ~stop ~child ~link key;
    None
  end
  else begin
    let img = Bytes.create (2 * page_size) in
    Bytes.blit b 0 img 0 stop;
    insert_cell img hdr ~at ~stop ~child ~link key;
    split pager page img ~stop:(stop + size)
  end

let rec index_insert pager page key =
  let b = index_page pager page in
  let hdr = cell_hdr b in
  let at = find_cell b hdr key and stop = cells_end b hdr in
  if hdr = 2 then
    if at < stop && compare_cell b hdr at key = 0 then begin
      (* duplicate composite key: the leaf is rewritten unchanged *)
      ignore (modify_page pager page);
      None
    end
    else add_cell pager page b hdr ~at ~stop ~child:0 ~link:0 key
  else
    let child = get_u32 b (if at < stop then at else 3) in
    match index_insert pager child key with
    | None -> None
    | Some (sep, link) -> add_cell pager page b hdr ~at ~stop ~child ~link sep

let insert_index pager ~root key =
  if String.length key > max_payload then raise (Too_large (String.length key));
  match index_insert pager root key with
  | None -> ()
  | Some (sep, right_page) ->
      (* root-preserving split *)
      let old = index_page pager root in
      let left_page = Pager.alloc pager in
      Bytes.blit old 0 (modify_page pager left_page) 0 page_size;
      let b = modify_page pager root in
      init_page b index_interior;
      let at = content_start in
      insert_cell b 6 ~at ~stop:at ~child:left_page ~link:right_page sep

let rec same_bytes b off key i =
  i = String.length key || (Bytes.get b (off + i) = key.[i] && same_bytes b off key (i + 1))

(* Whether the leaf cell at [off] holds [key] byte for byte. *)
let holds b off key = key_len b 2 off = String.length key && same_bytes b (off + 2) key 0

let rec delete_index pager ~root key =
  let b = index_page pager root in
  let hdr = cell_hdr b in
  let stop = cells_end b hdr in
  if hdr = 6 then
    let at = find_cell b hdr key in
    delete_index pager ~root:(get_u32 b (if at < stop then at else 3)) key
  else begin
    let n = count b in
    let off = ref content_start and found = ref false in
    for _ = 1 to n do
      if holds b !off key then found := true;
      off := next_cell b hdr !off
    done;
    if !found then begin
      (* every copy goes; the cells after each close up over it *)
      let b = modify_page pager root in
      let src = ref content_start and dst = ref content_start and kept = ref 0 in
      for _ = 1 to n do
        let next = next_cell b hdr !src in
        if not (holds b !src key) then begin
          Bytes.blit b !src b !dst (next - !src);
          dst := !dst + next - !src;
          incr kept
        end;
        src := next
      done;
      Bytes.fill b !dst (stop - !dst) '\000';
      put_u16 b 1 !kept
    end;
    !found
  end

(* [f] of each cell of [b] from the one at [off] on, the [i]th of [n],
   leaving out those whose keys are below [start]. *)
let rec cells_from b hdr start f off i n =
  if i = n then []
  else
    let next = next_cell b hdr off in
    match start with
    | Some s when compare_cell b hdr off s < 0 -> cells_from b hdr start f next (i + 1) n
    | _ ->
        let x = f off in
        x :: cells_from b hdr start f next (i + 1) n

(* Iterate keys >= start (or all when [start] is None) in order; f returns
   false to stop. A leaf's keys are all copied out before its first
   callback runs, since a callback may use the pager. *)
let iter_index pager ~root ?start f =
  let rec go page =
    let b = index_page pager page in
    let n = count b in
    if cell_hdr b = 2 then
      let key off = Bytes.sub_string b (off + 2) (key_len b 2 off) in
      List.iter (fun k -> if not (f k) then raise Stop) (cells_from b 2 start key content_start 0 n)
    else begin
      let right = get_u32 b 3 in
      List.iter go (cells_from b 6 start (get_u32 b) content_start 0 n);
      go right
    end
  in
  try go root with Stop -> ()

(* Collect every page of a tree (for DROP and VACUUM). *)
let rec pages pager ~root =
  Pager.work pager 1;
  let b = Pager.read_page pager root in
  let ty = Bytes.get_uint8 b 0 in
  let interior =
    if ty = index_leaf then None
    else if ty = index_interior then
      Some (cells_from b 6 None (get_u32 b) content_start 0 (count b), get_u32 b 3)
    else
      match decode_node b with
      | Table_leaf _ -> None
      | Table_interior (cells, right) -> Some (List.map fst cells, right)
  in
  match interior with
  | None -> [ root ]
  | Some (children, right) ->
      root :: List.concat_map (fun c -> pages pager ~root:c) children @ pages pager ~root:right
