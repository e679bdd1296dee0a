(* Conservation audits (see the .mli for the three laws). *)

type t = {
  law : string;
  unit : string;
  total : string * int;
  parts : (string * int) list;
}

let residue a = List.fold_left (fun r (_, v) -> r - v) (snd a.total) a.parts
let ok a = residue a = 0

let render a =
  let figure (name, v) =
    if a.unit = "" then Printf.sprintf "%s %d" name v
    else Printf.sprintf "%s %d %s" name v a.unit
  in
  Printf.sprintf "%s: %s = %s (%s)" a.law (figure a.total)
    (String.concat " + " (List.map figure (a.parts @ [ ("residue", residue a) ])))
    (if ok a then "balanced" else "UNBALANCED")

let check audits = List.filter (fun a -> not (ok a)) audits
