"""REP001 bad: formatdate() with no time formats the host's clock."""

import email.utils
from email.utils import formatdate as http_date


def stamp_reply(headers):
    headers["Date"] = email.utils.formatdate(usegmt=True)
    headers["Expires"] = http_date(None)
    headers["Last-Modified"] = http_date(timeval=None, localtime=False)
    return headers
