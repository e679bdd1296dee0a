(* Crash-point op log (see the .mli); [Backing.replay] replays it. *)

type op =
  | Write of { file : string; pos : int; data : string }
  | Truncate of { file : string; size : int }
  | Delete of { file : string }
  | Sync of { file : string }

type log = { mutable rev : op list; mutable n : int }

let create () = { rev = []; n = 0 }

let record l op =
  l.rev <- op :: l.rev;
  l.n <- l.n + 1

let length l = l.n
let ops l = List.rev l.rev

let clear l =
  l.rev <- [];
  l.n <- 0

let describe = function
  | Write { file; pos; data } ->
      Printf.sprintf "write %s @%d (%d bytes)" file pos (String.length data)
  | Truncate { file; size } -> Printf.sprintf "truncate %s -> %d" file size
  | Delete { file } -> "delete " ^ file
  | Sync { file } -> "sync " ^ file
