type t = (string * int) list

(* Owners name their counts without braces, so a name's one brace group
   is the label a composite gave it: "{id=" then the instance. *)
let label id counts =
  List.map
    (fun (name, v) ->
      match String.index_opt name '{' with
      | None -> (Printf.sprintf "%s{id=%s}" name id, v)
      | Some at ->
        let k = at + String.length "{id=" in
        (String.sub name 0 k ^ id ^ "/" ^ String.sub name k (String.length name - k), v))
    counts

let indexed name counts parts =
  List.concat (List.mapi (fun i part -> label (name i) (counts part)) (Array.to_list parts))
