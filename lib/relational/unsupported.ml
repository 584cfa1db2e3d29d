exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt
