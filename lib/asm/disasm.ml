type entry = {
  offset : int;
  bytes : string;
  instruction : Ssx.Instruction.t;
}

let disassemble code =
  let n = String.length code in
  let rec sweep pos acc =
    if pos >= n then List.rev acc
    else begin
      let instruction, len = Ssx.Codec.decode_bytes code ~pos in
      let len = min len (n - pos) in
      let entry =
        { offset = pos; bytes = String.sub code pos len; instruction }
      in
      sweep (pos + len) (entry :: acc)
    end
  in
  sweep 0 []

let pp_entry ppf { offset; bytes; instruction } =
  let hex =
    String.concat " "
      (List.init (String.length bytes) (fun i ->
           Printf.sprintf "%02X" (Char.code bytes.[i])))
  in
  Format.fprintf ppf "%04X  %-18s  %a" offset hex Ssx.Instruction.pp instruction

let branch_target = function
  | Ssx.Instruction.Jmp target
  | Ssx.Instruction.Jcc (_, target)
  | Ssx.Instruction.Call target
  | Ssx.Instruction.Loop target ->
    Some target
  | _ -> None

let listing ?(symbols = []) code =
  let entries = disassemble code in
  let label_of offset =
    List.find_map (fun (name, v) -> if v = offset then Some name else None) symbols
  in
  let buffer = Buffer.create 1024 in
  List.iter
    (fun entry ->
      (match label_of entry.offset with
      | Some name -> Buffer.add_string buffer (name ^ ":\n")
      | None -> ());
      Buffer.add_string buffer (Format.asprintf "%a" pp_entry entry);
      (match Option.bind (branch_target entry.instruction) label_of with
      | Some name -> Buffer.add_string buffer ("  ; -> " ^ name)
      | None -> ());
      Buffer.add_char buffer '\n')
    entries;
  Buffer.contents buffer
