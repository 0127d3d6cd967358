type proc_id = int

type value = int

module Pset = struct
  include Set.Make (Int)

  let pp fmt s =
    Format.fprintf fmt "{%s}"
      (String.concat "," (List.map string_of_int (elements s)))
end

let no_value = min_int
